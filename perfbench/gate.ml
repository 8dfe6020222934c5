(* A correctness-gate mismatch: the run must fail instead of reporting
   a number. *)
exception Mismatch of string

let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

(* Per-workload output of one run: the contract's counts, the metrics
   (units come from the metric lists in main.ml), and the run-record
   details behind them. *)
type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  record : (string * Measure.json) list;
}
