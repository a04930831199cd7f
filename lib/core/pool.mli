(** A parallel [List.map] over [Domain]s.

    The experiment grids are independent, deterministic simulations (each
    [Experiment.run] builds its own engine, OS and RNG), so the cells
    parallelize across domains with no shared state.  [map] preserves
    input order and re-raises the first task exception in the caller, so
    results are indistinguishable from [List.map] — the harness relies on
    this for its bit-identical [--jobs 1] / [--jobs N] guarantee.

    With [jobs <= 1] (or a single-element list) everything runs in the
    calling domain and no worker is ever spawned: the serial path is the
    parallel path's own baseline. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to [\[1; 64\]]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] runs [f] on every element on [jobs] worker domains
    (clamped to [\[1; 64\]] and to the list length), which take the next
    element as they finish the last.  Results are in input order.  Every
    task runs; if any raises, the first exception (in completion order) is
    re-raised in the caller once every task has ended.  With [jobs <= 1]
    this is exactly [List.map f xs] in the calling domain. *)
