(** JSON string escaping, shared by every JSON writer in the repo
    ({!Metrics_io}, {!Trace_export}): quotes, backslashes, \n \r \t, and
    [\uXXXX] for remaining control characters. *)

val escape : string -> string
(** Escaped string body, without surrounding quotes. *)

val add_escaped : Buffer.t -> string -> unit
(** Append the escaped string {e with} surrounding quotes. *)

