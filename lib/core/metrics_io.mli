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
    "label": ..., "cells": [...], "totals": {...}}]. *)

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
    match exactly.  Numbers: with [tolerance = 0] the raw lexemes must be
    byte-identical; otherwise the relative difference
    |a-b| / max(|a|,|b|) must not exceed [tolerance] percent. *)

val pp_diffs : ?limit:int -> Format.formatter -> diff list -> unit
(** Regression-gate failure report: for the first [limit] (default 8)
    mismatches print the full JSON path, the expected and observed values,
    and the reason (with the tolerance that was applied); any remainder is
    summarised as a count.  Assumes the formatter is inside a vertical
    box. *)

(** {1 Rendering} *)

val render : json -> (string, string) result
(** Human-readable tables ({!Report.table}) for a parsed metrics document:
    per-cell response/fault percentiles, Figure 7 breakdowns, release
    accuracy and telemetry ranges. *)
