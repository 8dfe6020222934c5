(* Cost accounting is an Obs.Metrics registry under [netsim.*] names;
   the engine bumps counter handles resolved once per engine, and the
   historical fields survive as live reads of the same cells. *)

type t = {
  registry : Obs.Metrics.t;
  rounds : Obs.Metrics.handle;
  sent : Obs.Metrics.handle;
  delivered : Obs.Metrics.handle;
  raw : Obs.Metrics.handle;
  distinct : Obs.Metrics.handle;
  churn_blocked : Obs.Metrics.handle;
}

let create () =
  let registry = Obs.Metrics.create () in
  let handle = Obs.Metrics.handle registry in
  {
    registry;
    rounds = handle "netsim.rounds";
    sent = handle "netsim.messages_sent";
    delivered = handle "netsim.messages_delivered";
    raw = handle "netsim.raw_probes";
    distinct = handle "netsim.distinct_probes";
    churn_blocked = handle "netsim.churn.blocked";
  }

let tick_round t = Obs.Metrics.bump t.rounds
let tick_sent t = Obs.Metrics.bump t.sent
let tick_delivered t = Obs.Metrics.bump t.delivered
let tick_raw_probe t = Obs.Metrics.bump t.raw
let tick_distinct_probe t = Obs.Metrics.bump t.distinct
let tick_churn_blocked t = Obs.Metrics.bump t.churn_blocked

let rounds t = Obs.Metrics.read t.rounds
let messages_sent t = Obs.Metrics.read t.sent
let messages_delivered t = Obs.Metrics.read t.delivered
let raw_probes t = Obs.Metrics.read t.raw
let distinct_probes t = Obs.Metrics.read t.distinct
let churn_blocked t = Obs.Metrics.read t.churn_blocked

let snapshot t = Obs.Metrics.snapshot t.registry

let delivery_rate t =
  let sent = messages_sent t in
  if sent = 0 then nan else float_of_int (messages_delivered t) /. float_of_int sent

let pp ppf t =
  Format.fprintf ppf "rounds=%d sent=%d delivered=%d probes=%d (%d raw)"
    (rounds t) (messages_sent t) (messages_delivered t) (distinct_probes t)
    (raw_probes t);
  let blocked = churn_blocked t in
  if blocked > 0 then Format.fprintf ppf " churn-blocked=%d" blocked
