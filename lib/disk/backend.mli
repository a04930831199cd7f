(** Uniform interface over page backing stores.

    A backend serves whole-page reads and writes with the same demand
    classes the striped swap volume exposes: [cat] charges the caller's
    blocking time to an {!Memhog_sim.Account} category, [background] marks
    the request as overtakeable by demand traffic, and [site] carries the
    static directive tag for attribution.  Three implementations exist:
    the local striped {!Swap} volume, the {!Farmem} network
    tier and the {!Zram} compressed-RAM tier; the [Memhog_vm.Tiers] router
    composes them into a fault-tolerant tiered store. *)

open Memhog_sim

type stats = {
  mutable reads : int;  (** read requests issued (successful or not) *)
  mutable writes : int;  (** write requests issued *)
  mutable timeouts : int;  (** attempts aborted at their deadline *)
  mutable retries : int;  (** re-issues after an aborted attempt *)
  mutable rejects : int;  (** writes refused (tier full or down) *)
}

val fresh_stats : unit -> stats

type read_result =
  | R_ok of int  (** page delivered; payload = attempts used *)
  | R_failed of int
      (** every attempt timed out (or the page is absent); the caller must
          recover from another tier.  Payload = attempts used. *)

type write_result =
  | W_ok of int  (** page stored; payload = attempts used *)
  | W_rejected of int
      (** the tier refused the page (out of capacity, link dead); the
          caller must place it elsewhere.  Payload = attempts used. *)

type t = {
  name : string;
  read :
    cat:Account.category -> background:bool -> site:int -> page:int ->
    read_result;
  write :
    cat:Account.category -> background:bool -> site:int -> page:int ->
    write_result;
  stats : stats;
}

val name : t -> string
val stats : t -> stats

val read_page :
  ?cat:Account.category ->
  ?background:bool ->
  ?site:int ->
  t ->
  page:int ->
  read_result
(** Blocking whole-page read.  Defaults: [cat] = [Io_stall], [background] =
    false, [site] = {!Trace.no_site}. *)

val write_page :
  ?cat:Account.category ->
  ?background:bool ->
  ?site:int ->
  t ->
  page:int ->
  write_result
