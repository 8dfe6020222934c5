(* The rendering core of `faultroute top`: one telemetry/v1 heartbeat
   line in, one plain-text frame out. Pure — the CLI owns tailing,
   ANSI clearing and pacing, so every layout decision here is unit-
   testable and `--once`/`--replay` snapshots are deterministic given
   the heartbeat bytes. *)

type frame = {
  seq : int option;
  uptime_s : float;
  session : string option;
  table : Inspect.table;
}

let ( let* ) = Result.bind

let frame_of_line line =
  let* j = Json.of_string (String.trim line) in
  match Option.bind (Json.member "schema" j) Json.to_str with
  | Some "telemetry/v1" ->
      let* seq, uptime_s, session, table = Inspect.parse_heartbeat j in
      Ok { seq; uptime_s; session; table }
  | Some other -> Error (Printf.sprintf "not a telemetry/v1 line (%S)" other)
  | None -> Error "line has no \"schema\" tag"

let gap ~prev f =
  match (prev.seq, f.seq) with
  | Some p, Some s when s > p + 1 -> s - p - 1
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let is_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let scaled name v = if is_suffix ~suffix:"_ns" name then v /. 1e6 else v
let unit_of name = if is_suffix ~suffix:"_ns" name then "ms" else ""

(* runtime.domain.<slot>.{minor,major,promoted,allocated} gauges folded
   into one GC row per domain slot, like Inspect.utilization_rows. *)
let gc_rows counters =
  let slots = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      match String.split_on_char '.' name with
      | [ "runtime"; "domain"; slot; leaf ] -> (
          match int_of_string_opt slot with
          | None -> ()
          | Some slot ->
              let row =
                match Hashtbl.find_opt slots slot with
                | Some r -> r
                | None ->
                    let r = (ref 0., ref 0., ref 0., ref 0.) in
                    Hashtbl.replace slots slot r;
                    r
              in
              let minor, major, promoted, allocated = row in
              (match leaf with
              | "minor_collections" -> minor := v
              | "major_collections" -> major := v
              | "promoted_words" -> promoted := v
              | "allocated_words" -> allocated := v
              | _ -> ()))
      | _ -> ())
    counters;
  Hashtbl.fold
    (fun slot (minor, major, promoted, allocated) acc ->
      (slot, !minor, !major, !promoted, !allocated) :: acc)
    slots []
  |> List.sort compare

let mwords v = v /. 1e6

let render f =
  let buffer = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buffer in
  let t = f.table in
  let counter name = List.assoc_opt name t.Inspect.counters in
  Format.fprintf ppf "faultroute top — uptime %.3f s" f.uptime_s;
  (match f.seq with
  | Some n -> Format.fprintf ppf " · beat %d" n
  | None -> ());
  (match f.session with
  | Some s -> Format.fprintf ppf " · session %s" s
  | None -> ());
  Format.fprintf ppf "@.";
  (* Progress: the serve gauges, when this heartbeat came from a serve
     session. *)
  (match counter "serve.admitted" with
  | Some admitted ->
      let v name = Option.value (counter name) ~default:0. in
      Format.fprintf ppf
        "progress   admitted %.0f · answered %.0f · rejected %.0f · queue \
         %.0f (peak %.0f)@."
        admitted (v "serve.answered") (v "serve.rejected")
        (v "serve.queue_depth")
        (v "serve.queue_depth_peak")
  | None -> ());
  (* Pool utilization per domain slot. *)
  (match Inspect.utilization_rows t.Inspect.counters with
  | [] -> ()
  | rows ->
      Format.fprintf ppf "pool       %6s %10s %10s %7s %10s@." "domain"
        "busy s" "wall s" "util%" "tasks";
      List.iter
        (fun (slot, busy, wall, tasks) ->
          let util = if wall > 0. then 100. *. busy /. wall else 0. in
          Format.fprintf ppf "           %6d %10.3f %10.3f %7.1f %10.0f@."
            slot busy wall util tasks)
        rows);
  (* GC pressure per domain, plus the process heap. *)
  (match gc_rows t.Inspect.counters with
  | [] -> ()
  | rows ->
      Format.fprintf ppf "gc         %6s %8s %8s %12s %12s@." "domain"
        "minor" "major" "promoted Mw" "alloc Mw";
      List.iter
        (fun (slot, minor, major, promoted, allocated) ->
          Format.fprintf ppf "           %6d %8.0f %8.0f %12.2f %12.2f@." slot
            minor major (mwords promoted) (mwords allocated))
        rows);
  (match counter "runtime.heap_words" with
  | Some heap ->
      Format.fprintf ppf "heap       %.2f Mwords" (mwords heap);
      (match counter "runtime.top_heap_words" with
      | Some top -> Format.fprintf ppf " (peak %.2f)" (mwords top)
      | None -> ());
      (match counter "runtime.major_collections" with
      | Some majors -> Format.fprintf ppf " · %.0f major GCs" majors
      | None -> ());
      Format.fprintf ppf "@."
  | None -> ());
  (* Latency quantiles, one row per histogram (per-op serve latencies,
     pool task service and queue wait). *)
  (match t.Inspect.hists with
  | [] -> ()
  | hists ->
      let width =
        List.fold_left
          (fun acc (n, _) -> Stdlib.max acc (String.length n))
          9 hists
      in
      Format.fprintf ppf "latency    %-*s %10s %9s %9s %9s %9s %4s@." width
        "op" "count" "p50" "p95" "p99" "max" "unit";
      List.iter
        (fun (name, h) ->
          let q p =
            match Hist.quantile h p with
            | Some v -> Printf.sprintf "%.3g" (scaled name (float_of_int v))
            | None -> "-"
          in
          let mx =
            if h.Hist.count = 0 then "-"
            else Printf.sprintf "%.3g" (scaled name (float_of_int h.max))
          in
          Format.fprintf ppf "           %-*s %10d %9s %9s %9s %9s %4s@."
            width name h.count (q 0.5) (q 0.95) (q 0.99) mx
            (unit_of name))
        hists);
  Format.pp_print_flush ppf ();
  Buffer.contents buffer
