(** Derived metrics: the stable, comparable summary of an experiment.

    A labelled list of {!Experiment.result}s, the unit {!Metrics_io}
    serializes ([memhog run --metrics], the gate baselines), renders
    ([memhog run], [memhog report]) and compares ([memhog compare]).  The serializer
    reads every number straight from the results; see {!Metrics_io} for
    the document's keys.

    Every serialized number is derived from simulated time and
    deterministic counters only — never wall-clock — so two runs of the
    same seed and configuration produce identical documents regardless of
    [--jobs]. *)

type t = { m_label : string; m_results : Experiment.result list }

val of_results : label:string -> Experiment.result list -> t
(** One cell per result, in the given order; totals aggregate all of
    them. *)

val of_matrix : Figures.matrix -> t
(** The whole experiment matrix, cells in {!Figures.matrix_results} order.
    Contains only simulated quantities: independent of [--jobs] and
    wall-clock. *)
