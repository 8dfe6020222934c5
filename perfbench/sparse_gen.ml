type world = { wid : string; topology : string; vertices : int; radius : int }

let dim = 16
let side = 256

let worlds =
  [
    { wid = "hc"; topology = "hypercube:16"; vertices = 1 lsl dim; radius = 2 };
    { wid = "m2"; topology = "mesh2:256"; vertices = side * side; radius = 4 };
  ]

let default_count = 20_000
let route_budget = 64
let reveal_limit = 256

(* Distinct tags keep the manifest draws and the query draws apart, so
   changing the query count never moves the worlds. *)
let rng ~seed tag = Random.State.make [| seed; tag |]

let manifest ~seed =
  let st = rng ~seed 1 in
  let world w =
    Printf.sprintf {|{"id": "%s", "topology": "%s", "p": 0.7, "seed": %d}|}
      w.wid w.topology (Random.State.bits st)
  in
  Printf.sprintf
    {|{"schema": "session/v1", "name": "serve-sparse", "seed": %d, "worlds": [%s], "limits": {"queue": 4096, "reveal_limit": %d}}|}
    seed
    (String.concat ", " (List.map world worlds))
    reveal_limit

(* A uniform target at 1..radius hops from [source]. *)
let near st w source =
  match w.wid with
  | "hc" ->
      let flips = 1 + Random.State.int st w.radius in
      let rec flip v k =
        if k = 0 then v
        else
          let bit = 1 lsl Random.State.int st dim in
          if v land bit <> source land bit then flip v k
          else flip (v lxor bit) (k - 1)
      in
      flip source flips
  | _ ->
      let x = source mod side and y = source / side in
      let rec draw () =
        let dx = Random.State.int st ((2 * w.radius) + 1) - w.radius in
        let dy = Random.State.int st ((2 * w.radius) + 1) - w.radius in
        let d = abs dx + abs dy in
        let x' = x + dx and y' = y + dy in
        if d = 0 || d > w.radius || x' < 0 || x' >= side || y' < 0 || y' >= side
        then draw ()
        else x' + (side * y')
      in
      draw ()

let queries ~seed ~count =
  let st = rng ~seed 2 in
  let ws = Array.of_list worlds in
  Array.init count (fun i ->
      let id = i + 1 in
      let w = ws.(Random.State.int st (Array.length ws)) in
      let kind = Random.State.int st 10 in
      let source = Random.State.int st w.vertices in
      if kind < 8 then
        Printf.sprintf
          {|{"id": %d, "op": "route", "world": "%s", "source": %d, "target": %d, "router": "bfs", "budget": %d}|}
          id w.wid source (near st w source) route_budget
      else if kind = 8 then
        Printf.sprintf
          {|{"id": %d, "op": "reveal", "world": "%s", "source": %d, "target": %d, "limit": %d}|}
          id w.wid source (near st w source) reveal_limit
      else
        Printf.sprintf
          {|{"id": %d, "op": "cluster", "world": "%s", "vertex": %d, "limit": %d}|}
          id w.wid source reveal_limit)

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

let hops wid u v =
  match wid with
  | "hc" -> popcount (u lxor v)
  | "m2" -> abs ((u mod side) - (v mod side)) + abs ((u / side) - (v / side))
  | _ -> raise Not_found
