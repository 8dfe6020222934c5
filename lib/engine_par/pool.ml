let recommended_jobs () = Domain.recommended_domain_count ()

let default = Atomic.make 1

let default_jobs () = Atomic.get default

let set_default_jobs jobs =
  if jobs <= 0 then invalid_arg "Pool.set_default_jobs: jobs must be positive";
  Atomic.set default jobs

let worker_flag = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get worker_flag

(* The worker body shared by every domain (including the caller, which
   participates instead of idling). Indices come from [next]; a raised
   exception is parked in [failure] (first one wins) and stops the
   pool via [stop]. *)
let worker_loop ~next ~stop ~failure ~limit ~until ~work ~results =
  (try
     let continue = ref true in
     while !continue do
       if Atomic.get stop then continue := false
       else begin
         let i = Atomic.fetch_and_add next 1 in
         if i >= limit then continue := false
         else begin
           let r = work i in
           results.(i) <- Some r;
           if until r then Atomic.set stop true
         end
       end
     done
   with exn ->
     let bt = Printexc.get_raw_backtrace () in
     ignore (Atomic.compare_and_set failure None (Some (exn, bt)));
     Atomic.set stop true)

(* Telemetry wrapper: one slot = one domain's participation in one
   pool dispatch. Accumulates busy seconds, task count and service /
   queue-wait histograms locally, then publishes them in a handful of
   lock acquisitions at slot end — nothing touches shared state per
   task. Queue wait for index [i] is measured from dispatch start to
   the moment a domain picked [i] up (so it includes domain spawn
   latency and time spent behind earlier tasks on the same domain). *)
let with_slot_telemetry ~slot ~pool_t0 ~work body =
  let task_ns = Obs.Hist.create () in
  let queue_wait_ns = Obs.Hist.create () in
  let busy = ref 0. in
  let tasks = ref 0 in
  let timed_work i =
    let t0 = Unix.gettimeofday () in
    Obs.Hist.observe queue_wait_ns (int_of_float ((t0 -. pool_t0) *. 1e9));
    let r = work i in
    let dt = Unix.gettimeofday () -. t0 in
    busy := !busy +. dt;
    incr tasks;
    Obs.Hist.observe task_ns (int_of_float (dt *. 1e9));
    r
  in
  let slot_t0 = Unix.gettimeofday () in
  let gc0 = Obs.Runtime.sample () in
  Fun.protect
    ~finally:(fun () ->
      let wall = Unix.gettimeofday () -. slot_t0 in
      let prefix = Printf.sprintf "pool.domain.%d." slot in
      Obs.Telemetry.add_to (prefix ^ "wall_s") wall;
      Obs.Telemetry.add_to (prefix ^ "busy_s") !busy;
      Obs.Telemetry.add_to (prefix ^ "tasks") (float_of_int !tasks);
      Obs.Telemetry.absorb "pool.task_ns" task_ns;
      Obs.Telemetry.absorb "pool.queue_wait_ns" queue_wait_ns;
      Obs.Runtime.publish_slot ~slot (Obs.Runtime.delta_since gc0))
    (fun () -> body timed_work)

let sequential_prefix ~limit ~until work =
  let acc = ref [] in
  let stopped = ref false in
  let i = ref 0 in
  while (not !stopped) && !i < limit do
    let r = work !i in
    acc := r :: !acc;
    if until r then stopped := true;
    incr i
  done;
  Array.of_list (List.rev !acc)

let parallel_prefix ~telemetry ~jobs ~limit ~until work =
  let results = Array.make limit None in
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  let failure = Atomic.make None in
  let pool_t0 = if telemetry then Unix.gettimeofday () else 0. in
  let body ~slot () =
    let run work = worker_loop ~next ~stop ~failure ~limit ~until ~work ~results in
    if telemetry then with_slot_telemetry ~slot ~pool_t0 ~work run else run work
  in
  let spawned = Stdlib.min jobs limit - 1 in
  let domains =
    List.init spawned (fun k ->
        Domain.spawn (fun () ->
            Domain.DLS.set worker_flag true;
            body ~slot:(k + 1) ()))
  in
  (* The caller works too; mark it so nested pool calls run inline. *)
  Domain.DLS.set worker_flag true;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set worker_flag false;
      List.iter Domain.join domains)
    (body ~slot:0);
  (match Atomic.get failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ());
  (* Dispensed indices form a contiguous prefix and all of them have
     completed by now; cut the array at the first unfilled slot. *)
  let filled = ref 0 in
  while !filled < limit && results.(!filled) <> None do incr filled done;
  Array.init !filled (fun i ->
      match results.(i) with Some r -> r | None -> assert false)

let collect_prefix ?jobs ~limit ~until work =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs <= 0 then invalid_arg "Pool.collect_prefix: jobs must be positive";
  if limit < 0 then invalid_arg "Pool.collect_prefix: limit must be non-negative";
  (* Nested (in-worker) dispatches skip telemetry: their time is
     already inside the enclosing task's service time. *)
  let telemetry = Obs.Telemetry.on () && not (in_worker ()) in
  if telemetry then Obs.Telemetry.add_to "pool.dispatches" 1.;
  let run () =
    if jobs = 1 || limit <= 1 || in_worker () then
      if telemetry then
        with_slot_telemetry ~slot:0 ~pool_t0:(Unix.gettimeofday ()) ~work
          (fun work -> sequential_prefix ~limit ~until work)
      else sequential_prefix ~limit ~until work
    else parallel_prefix ~telemetry ~jobs ~limit ~until work
  in
  (* Profiling only — the pool's wall time, including domain spawn and
     join, attributed at the dispatch layer. *)
  if Obs.Timing.on () then Obs.Timing.span "pool.collect_prefix" run else run ()

let map ?jobs f xs =
  collect_prefix ?jobs ~limit:(Array.length xs)
    ~until:(fun _ -> false)
    (fun i -> f xs.(i))
