(** Checkpoint/resume for chunked campaigns — the [checkpoint/v1]
    journal.

    A campaign killed at chunk 900 of 1000 should not recompute the
    first 900. The one chunk runner ({!Simrun.chunks}) streams every
    completed chunk's cells to an append-only JSONL journal as it
    finishes; a resumed run looks each chunk up before computing it and
    replays the stored cells through the same fold, so the final report
    is byte-identical to an uninterrupted run. Two cell codecs share the
    journal: trial cells ({!lookup}/{!store}, for {!Trial.run}) and
    float value cells ({!lookup_values}/{!store_values}, for
    {!Simrun.run}).

    Correctness rests on two facts:

    - chunk results are pure functions of [(spec, root seed, chunk)],
      so a restored chunk equals the chunk a fresh run would compute;
    - journal entries are keyed by a digest of everything those
      functions depend on ({!Trial} builds the canonical string:
      topology, p, endpoints, router, budget, reveal limit, root seed,
      trials, attempt cap, chunk size — everything {e except} the job
      count, which chunk results do not depend on). A resume with any
      parameter changed simply misses and recomputes.

    The journal is append-only with a per-line flush, so a [kill -9]
    can lose at most the line being written; the loader tolerates a
    torn final line (and skips anything unparseable) rather than
    failing the resume. Restored cells carry no trace records and empty
    metric snapshots — report bytes are unaffected, but a traced or
    metered resumed run only covers the chunks it actually recomputed.

    Like the fault plan and the supervisor policy, the checkpoint is
    ambient process state installed by the CLI ({!configure}) and
    picked up by the chunk runner — no parameter threading through
    experiment signatures. *)

type cell =
  | Rejected
  | Accepted of { distance : int; outcome : Routing.Outcome.t }
      (** Mirrors [Trial]'s attempt verdict. A restored [Found] path is
          synthetic — only its length survives serialization, which is
          all the statistics consume. *)

val file : dir:string -> string
(** [dir/checkpoint.jsonl]. *)

val configure : dir:string -> resume:bool -> (unit, string) result
(** Activate checkpointing into [dir] (created as needed). With
    [resume] the existing journal is loaded (tolerantly) and appended
    to; without it the journal is truncated. Fault and restore counters
    reset. *)

val deconfigure : unit -> unit
(** Close the journal and deactivate. Safe when inactive. *)

val active : unit -> bool

val digest_key : string -> string
(** Hex digest of a canonical config string — the journal key. *)

val lookup : key:string -> chunk:int -> cell array option
(** The stored cells for [(key, chunk)], if the journal has them.
    Counts a restore on hit. *)

val store : key:string -> chunk:int -> cell array -> unit
(** Append one chunk line and flush it. No-op when inactive. When a
    kill threshold is set and this append reaches it, the process
    exits immediately with code 137 — [Unix._exit], no cleanup — the
    deterministic stand-in for [kill -9] in resume tests. *)

val lookup_values : key:string -> chunk:int -> float array array option
(** Like {!lookup} for {e value chunks} — the generic simulation
    runner's cells, one float array per work item (see {!Simrun}).
    The two cell kinds share the journal file and counters but not
    keyspaces: a [lookup_values] never answers from a {!store}d
    chunk. *)

val store_values : key:string -> chunk:int -> float array array -> unit
(** Like {!store} for value chunks. Values are journaled as IEEE-754
    bit patterns, so a restored cell is bit-identical to the computed
    one — decimal formatting would break byte-reproducible resumes.
    Counts against the same kill threshold as {!store}. *)

val set_kill_after : int option -> unit
(** Install the [Die_after_chunks] threshold from a fault plan:
    hard-kill the process after that many {!store} appends. *)

val restored : unit -> int
(** Chunks served from the journal since {!configure}. *)

val appended : unit -> int
(** Chunks appended since {!configure}. *)

val metrics_snapshot : unit -> Obs.Metrics.snapshot
(** [checkpoint.chunks.restored] / [checkpoint.chunks.appended], for
    [--metrics-out]. Operational counters: they describe this process's
    work split, not the (schedule-independent) results. *)
