(** The tolerance-0 gate registry behind [memhog gate].

    Each entry re-simulates a fixed set of cells on {!Machine.quick}, raises
    when the run breaks one of the results the entry exists to hold (a
    failed physics check), and returns a canonical document that must match
    its committed baseline in [bench/] number lexeme for number lexeme.

    Building the registry runs nothing: every simulation waits for its
    entry's [run]. *)

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
  run : unit -> outcome;
      (** Simulate the entry's cells on the quick machine, with a fixed job
          count.
          @raise Failure naming the first failed physics check *)
}

val entries : entry list
(** [smoke] (BENCH), [chaos] (CHAOS), [serve] (SERVE, plus the slowest
    request's critical path), [tiers] (TIER), [obs] (OBS, plus the
    OpenMetrics snapshot) and [perf] (PERF, the throughput cells' work
    counters). *)

val select : string list -> (entry list, string) result
(** The named entries in the order given, or every entry for [[]].  An
    unknown name is an [Error] that lists the known names. *)

val compare :
  baseline:Metrics_io.json -> Metrics_io.json -> Metrics_io.diff list
(** {!Metrics_io.compare_json} at tolerance 0: every number lexeme must
    match exactly.  No baseline carries a wall-clock member, so each is a
    pure function of the code. *)
