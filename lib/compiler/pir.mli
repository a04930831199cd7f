(** PIR — the page-granular executable form emitted by the compiler.

    This is the moral equivalent of the specialized executable of Figure 4:
    the original loop nest, strip-mined by page, with prefetch and release
    calls scheduled by software pipelining (Figure 5 shows the corresponding
    source-level output of the real compiler).

    Index expressions are closures over an [int array] environment.  The
    code generator resolves every name they read (program parameters, loop
    variables, call bindings) to a slot of that array, listed in
    [px_slots]; loops and calls write the slots they bind.  A single
    compiled program can therefore be run with different runtime parameter
    values — which is exactly how MGRID ends up with suboptimal releases:
    one compiled version, many bindings. *)

type rt = int array -> int

type directive = {
  d_array : string;
  d_first : rt;     (** first element index *)
  d_count : rt;     (** number of iterations covered *)
  d_stride : rt;    (** elements advanced per iteration *)
  d_tag : int;      (** request identifier, unique per static site *)
  d_desc : string;  (** human-readable site description *)
}

type pstmt =
  | P_seq of pstmt list
  | P_loop of {
      var : string;
      slot : int;  (** holds [var] on each iteration *)
      lo : rt;
      hi : rt;
      step : int;
      body : pstmt;
    }
  | P_touch of { array : string; first : rt; count : rt; stride : rt; write : bool }
      (** reference the pages covering [first + k*stride | 0 <= k < count] *)
  | P_compute of { ns : rt }
  | P_prefetch of directive
  | P_release of { dir : directive; priority : int }
  | P_indirect of {
      array : string;
      count : rt;          (** random touches per execution *)
      write : bool;
      lookahead : int;     (** prefetch distance, in touches *)
      prefetch : bool;
      stream : int;        (** stable stream id: the same random index
                               sequence is drawn in every variant *)
    }
  | P_call of { proc : string; binds : (int * rt) list }
      (** each bound slot takes its value, evaluated in the caller, for the
          duration of the call *)

type variant = V_original | V_prefetch | V_release

val variant_name : variant -> string
val variant_letter : variant -> string
(** O / P / R per the paper's figure labels (B is R executed under the
    buffering run-time policy). *)

type gen_stats = {
  mutable gs_prefetch_sites : int;
  mutable gs_release_sites : int;
  mutable gs_chunk_loops : int;
  mutable gs_prefetch_distance : int;  (** max pipelining distance used *)
}

type prog = {
  px_name : string;
  px_arrays : Ir.array_decl list;
  px_params : (string * int option) list;  (** assumptions, for reference *)
  px_slots : string array;
      (** slot [i] of the environment holds the variable [px_slots.(i)] *)
  px_main : pstmt;
  px_procs : (string * pstmt) list;
  px_variant : variant;
  px_stats : gen_stats;
}

val find_proc : prog -> string -> pstmt

type site_kind = S_prefetch | S_release

type site_info = {
  si_tag : int;       (** directive tag = ledger site id *)
  si_kind : site_kind;
  si_array : string;
  si_desc : string;   (** human-readable site description *)
  si_priority : int;  (** Eq. 2 static priority (releases; 0 for prefetches) *)
}

val sites : prog -> site_info list
(** Every static prefetch/release directive site in the program, sorted by
    tag.  Joins the ledger's per-site efficacy rows back to source-level
    descriptions for the audit report. *)

val pp : Format.formatter -> prog -> unit
(** Structural dump with directive descriptions (index closures cannot be
    printed; the [d_desc] strings recorded at generation time are shown). *)
