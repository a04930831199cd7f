(** Reuse and locality analysis (section 3.2).

    For every reference in every loop nest the pass determines:

    - {b temporal reuse}: the set of enclosing loops whose induction
      variable does not (visibly) appear in the subscript — the reference
      re-touches the same data on every iteration of those loops.  Opaque
      coefficients are invisible here, so a runtime-varying stride is
      mis-classified as temporal reuse: the FFTPDE failure mode, kept
      deliberately;
    - {b spatial reuse}: loops along which the stride is smaller than a
      page;
    - {b group locality}: references to the same array whose subscripts
      differ by a small number of iterations ("effectively share the same
      data"); the {e leading} reference of a group is the prefetch target
      and the {e trailing} reference is the release target;
    - {b locality}: whether the data volume accessed between reuses fits in
      the memory the compiler assumes is available; if it provably fits, the
      page will still be resident and neither prefetch nor release is
      needed.  Loops with unknown bounds are assumed large, so "it fits" can
      never be proven for them (section 2.4);
    - the {b release priority} of equation 2:
      [priority x = sum over temporal loops i of 2^depth(i)]. *)

type target = {
  memory_pages : int;   (** physical memory the compiler assumes available *)
  page_bytes : int;
  fault_latency_ns : int;
}

val default_target : target
(** The paper's machine: 4800 pages of 16 KB, ~11 ms fault latency. *)

type dir_ann = {
  da_temporal : (string * int) list;
      (** loops (var, depth) with apparent temporal reuse, outermost first *)
  da_spatial : string list;
  da_advance : (string * int option) option;
      (** innermost loop whose induction variable visibly moves the
          reference, with the assumed element stride when statically known *)
  da_priority : int;   (** equation 2 *)
  da_retained : bool;  (** provably stays resident between reuses *)
}

type ref_ann = {
  ra_index : int;          (** position of the reference in its body *)
  ra_ref : Ir.ref_;
  ra_dir : dir_ann option; (** [None] for indirect references *)
  ra_group : int;
  ra_is_leader : bool;
  ra_is_trailer : bool;
}

type body_ann = {
  ba_id : int;
  ba_body : Ir.body;
  ba_path : Ir.loop list;  (** enclosing loops, outermost first *)
  ba_refs : ref_ann list;
}

type ann_stmt =
  | A_loop of Ir.loop * ann_stmt
  | A_seq of ann_stmt list
  | A_body of body_ann
  | A_call of string * (string * Ir.bound) list

type stats = {
  mutable st_bodies : int;
  mutable st_direct_refs : int;
  mutable st_indirect_refs : int;
  mutable st_groups : int;
  mutable st_retained : int;
  mutable st_unknown_bound_loops : int;
  mutable st_false_temporal : int;
      (** temporal-reuse classifications caused by opaque coefficients *)
}

type t = {
  ap_prog : Ir.program;
  ap_target : target;
  ap_main : ann_stmt;
  ap_procs : (string * ann_stmt) list;
  ap_stats : stats;
}

val analyze : target:target -> Ir.program -> t

val priority_of : temporal:(string * int) list -> int
(** Equation 2, exposed for direct testing. *)

val pp : Format.formatter -> t -> unit
(** Render the analysis (per body: groups, leaders/trailers, priorities) —
    the moral equivalent of the compiler's diagnostic dump. *)
