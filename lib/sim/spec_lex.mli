(** The value lexer shared by the textual specs ({!Chaos} plans and
    [Memhog_vm.Tiers] specs): times, numbers and [key=value] lists, with
    one set of units and one error shape, [KEY: bad time "VALUE"]. *)

exception Bad of string
(** A malformed value; the message names the key it was given for. *)

val bad : ('a, unit, string, 'b) format4 -> 'a
(** [bad fmt ...] raises {!Bad} with the formatted message. *)

val time : key:string -> string -> Time_ns.t
(** A non-negative simulated time: a number with a unit suffix ([ns],
    [us], [ms], [s], [m], [h]); a bare number means seconds.
    @raise Bad on an empty, negative or malformed time or an unknown unit. *)

val int : key:string -> string -> int
(** @raise Bad unless the trimmed text is an integer. *)

val float : key:string -> string -> float
(** @raise Bad unless the trimmed text is a number. *)

val kvs : clause:string -> string -> (string * string) list
(** [kvs ~clause body] splits [k=v,k=v,...] into pairs, keys trimmed and
    values left textual; empty items are skipped.
    @raise Bad naming [clause] on an item without [=]. *)
