(** Serialization, comparison and rendering of {!Metrics}.

    The JSON writer is canonical: fixed key order, fixed number formatting,
    no locale or wall-clock dependence — two identical {!Metrics.t} values
    produce byte-identical files, which is what lets [memhog gate] compare
    each run with a committed baseline at tolerance 0.

    The parser keeps each number's raw lexeme, so a zero-tolerance compare
    can demand textual equality rather than float equality. *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Num of float * string  (** parsed value and the raw lexeme *)
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val num_of_int : int -> json
val num_of_float : float -> json

val escape_string : string -> string
(** JSON string-body escaping (no surrounding quotes): {!Json_str.escape},
    the single escaper shared by this writer and {!Trace_export}. *)

val to_string : json -> string
(** Canonical rendering: 2-space indent, keys in the order given. *)

val parse : string -> (json, string) result
(** Strict JSON parser (objects, arrays, strings with escapes, numbers,
    [true]/[false]/[null]); the error string includes an offset. *)

(** {1 Metrics files} *)

val schema_version : int

val metrics_json : Metrics.t -> json
(** Stable-key document: [{"schema": "memhog-metrics", "schema_version": N,
    "label": ..., "cells": [...], "totals": {...}}], one cell object per
    result, read straight from the result's own records.  EXPERIMENTS.md
    ("Derived metrics") tabulates every key and its meaning. *)

val write_file : path:string -> Metrics.t -> unit

val read_file : path:string -> (json, string) result
(** Parse any JSON file; fails only when it is unreadable or malformed. *)

val load_file : path:string -> (json, string) result
(** {!read_file} for a metrics file; also fails when it does not carry
    the expected [schema]/[schema_version]. *)

(** {1 Comparison} *)

type diff = {
  d_path : string;     (** full dotted path, e.g. ["cells[3].fault_hist.p99_ns"] *)
  d_expected : string; (** baseline value (raw lexeme for numbers) *)
  d_got : string;      (** current value *)
  d_reason : string;   (** why it was flagged, including the tolerance *)
}

val compare_json : tolerance:float -> json -> json -> diff list
(** Structural comparison.  Non-numeric leaves and object/array shape must
    match exactly, and the keys two objects share must come in the same
    order (a reordering is one diff at the object's path, listing both
    orders).  Numbers: with [tolerance = 0] the raw lexemes must be
    byte-identical; otherwise the relative difference
    |a-b| / max(|a|,|b|) must not exceed [tolerance] percent.
    @raise Invalid_argument unless [tolerance] is finite and at least 0. *)

val pp_diffs : Format.formatter -> diff list -> unit
(** Regression-gate failure report: for the first 8 mismatches print the
    full JSON path, the expected and observed values, and the reason (with
    the tolerance that was applied); any remainder is summarised as a
    count.  Assumes the formatter is inside a vertical box. *)

(** {1 Rendering} *)

val render : json -> (string, string) result
(** Human-readable tables ({!Report.table}) for a parsed metrics document,
    one row per cell: the only per-cell view of a run's numbers ([memhog
    run], [serve] and [tiers] print it for the document they build,
    [memhog report] for files).  A row is named
    [workload/variant], then the cell's fast tiers joined by [+] (its
    [tiers] rows other than [disk]), then [@ R rps] for a serving cell.
    In this order: execution (Figure 7 breakdown and time per pass),
    faults and paging daemon, demand-fault service time, prefetch service
    time, interactive response, serving tail latency (with a warning line
    under it for each serving cell that recorded no response), tail blame
    by percentile band, prefetch race and demand-disk attribution, tail
    blame shares, release accuracy, run-time layer, swap volume, backing
    tiers, tier routing, wasted work, prefetch sites, release sites,
    telemetry, alert timeline, fault injection, degradation governor and
    totals.  A table whose source object is absent (or null) in every
    cell, or that would have no rows, is left out; execution, faults, the
    two service times, release accuracy and telemetry are always drawn,
    and totals whenever the document has them and more than one cell. *)
