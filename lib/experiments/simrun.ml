(* The one supervised, checkpointed chunk runner. [chunks] owns every
   step of the loop — the supervised-or-not decision, the ambient
   policy and fault plan, the checkpoint lookup-or-compute-and-store
   wrap, the per-item watchdog poll — and its two callers pass only
   what differs: [Trial.run] its early-stop predicate and the
   trial-cell codec, [run] below the value-cell codec. The
   byte-reproducibility argument is shared: [item] must be a pure
   function of its index (derive all randomness from per-index stream
   splits), so chunk results are pure in [(key, chunk)] and neither
   scheduling, retries nor restores can show in the output. *)

let chunk_size = 4

(* Minor collections stop every domain: one that the host has preempted
   holds all the others at the next collection until it runs again. A
   domain that runs chunks therefore gets a minor heap of at least
   [nursery_words] (8 MB), four times the runtime default, so that a
   parallel campaign meets at a quarter as many collections and
   promotes less of what dies within an item. The domain keeps it;
   pool workers end with their dispatch. *)
let nursery_words = 1 lsl 20

let ensure_nursery () =
  let gc = Gc.get () in
  if gc.Gc.minor_heap_size < nursery_words then
    Gc.set { gc with Gc.minor_heap_size = nursery_words }

let sized_chunks ?jobs ~chunk_size ~count ~key ~lookup ~store ~pack ~until item =
  let n_chunks = (count + chunk_size - 1) / chunk_size in
  let cells c =
    ensure_nursery ();
    let lo = c * chunk_size in
    Array.init (Stdlib.min count (lo + chunk_size) - lo) (fun k ->
        if Engine_par.Supervisor.watchdog_armed () then
          Engine_par.Supervisor.poll ();
        item (lo + k))
  in
  let plan = Faultsim.Plan.ambient () in
  if not (Engine_par.Supervisor.armed () || plan <> None || Checkpoint.active ())
  then
    ( Array.map Option.some
        (Engine_par.Pool.collect_prefix ?jobs ~limit:n_chunks ~until (fun c ->
             pack (cells c))),
      None )
  else begin
    let cells =
      if not (Checkpoint.active ()) then cells
      else begin
        let key = Lazy.force key in
        fun c ->
          match lookup ~key ~chunk:c with
          | Some stored -> stored
          | None ->
              let computed = cells c in
              store ~key ~chunk:c computed;
              computed
      end
    in
    let policy =
      Option.value
        (Engine_par.Supervisor.current_policy ())
        ~default:Engine_par.Supervisor.default_policy
    in
    let inject =
      match plan with
      | Some plan ->
          fun ~chunk ~attempt -> Faultsim.Plan.injector plan ~chunk ~attempt
      | None -> fun ~chunk:_ ~attempt:_ -> Engine_par.Supervisor.Pass
    in
    let outcomes, summary =
      Engine_par.Supervisor.collect_prefix ?jobs ~policy ~inject
        ~limit:n_chunks ~until (fun c -> pack (cells c))
    in
    ( Array.map
        (function
          | Engine_par.Supervisor.Completed chunk -> Some chunk
          | Engine_par.Supervisor.Quarantined _ -> None)
        outcomes,
      Some summary )
  end

let chunks ?jobs ~count ~key ~lookup ~store ~pack ~until item =
  sized_chunks ?jobs ~chunk_size ~count ~key ~lookup ~store ~pack ~until item

let digest ~key ~count ~chunk_size =
  Checkpoint.digest_key
    (Printf.sprintf "simrun;%s;count=%d;chunk=%d" key count chunk_size)

let run ?jobs ?(chunk_size = chunk_size) ~key ~count compute =
  if count < 0 then invalid_arg "Simrun.run: negative count";
  if chunk_size < 1 then invalid_arg "Simrun.run: chunk_size must be positive";
  let chunks, _summary =
    sized_chunks ?jobs ~chunk_size ~count
      ~key:(lazy (digest ~key ~count ~chunk_size))
      ~lookup:Checkpoint.lookup_values ~store:Checkpoint.store_values
      ~pack:Fun.id
      ~until:(fun _ -> false)
      (compute : int -> float array)
  in
  (* A quarantined chunk keeps its slot (positional alignment with the
     index space) but its cells are empty vectors; callers skip them,
     and the CLI surfaces the loss via faults/v1 + exit 5 from the
     supervisor's global summary. *)
  Array.concat
    (List.mapi
       (fun c -> function
         | Some cells -> cells
         | None ->
             Array.make (Stdlib.min count ((c + 1) * chunk_size) - (c * chunk_size)) [||])
       (Array.to_list chunks))
