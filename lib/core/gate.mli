(** The tolerance-0 gate registry behind [memhog gate].

    Each entry names a fixed set of cells on {!Machine.quick} and reads its
    outcome back from their lookup: it raises when the run breaks one of
    the results the entry exists to hold (a failed physics check), and
    returns a canonical document that must match its committed baseline in
    [bench/] number lexeme for number lexeme.  The runner
    ({!Figures.simulate}) has already checked every co-run cell's OS
    invariants and request conservation.

    Building the registry runs nothing: every simulation waits for the
    caller to simulate the entry's [cells]. *)

type outcome = {
  doc : Metrics_io.json;
      (** the document the baseline freezes; [memhog gate --update] writes
          it verbatim ({!Metrics_io.to_string}) *)
  artifacts : (string * string) list;
      (** informational files as (file name, contents); never compared *)
}

type entry = {
  name : string;
  baseline : string;  (** file name of the committed baseline in [bench/] *)
  cells : Figures.cell list;  (** what [read] reads, on the quick machine *)
  read : Figures.lookup -> outcome;
      (** @raise Failure naming the first failed physics check *)
}

val entries : entry list
(** [smoke] (BENCH), [chaos] (CHAOS), [serve] (SERVE, plus the slowest
    request's critical path), [tiers] (TIER), [obs] (OBS, plus the
    OpenMetrics snapshot), [perf] (PERF, the throughput cells' work
    counters) and [ablations] (ABLATION, the nine ablation-experiment
    cells whose machine sets one of {!Memhog_vm.Config}'s four ablation
    switches). *)

val select : string list -> (entry list, string) result
(** The named entries in the order given, or every entry for [[]].  An
    unknown name is an [Error] that lists the known names. *)

val compare :
  baseline:Metrics_io.json -> Metrics_io.json -> Metrics_io.diff list
(** {!Metrics_io.compare_json} at tolerance 0: every number lexeme must
    match exactly.  No baseline carries a wall-clock member, so each is a
    pure function of the code. *)
