(* MGRID: the NAS multigrid kernel, out-of-core version.

   A V-cycle over 3-D grids: smoothing and residual sweeps are procedures
   called once per level with different grid sizes and base offsets.  Only
   one version of each procedure is compiled, so its release decisions
   cannot fit every level; and the reuse *between* consecutive sweeps over
   the same grid is invisible to the compiler (each loop nest is analyzed
   independently), so pages are released at the end of a sweep only to be
   wanted again by the next — the large rescued fraction of Figure 9. *)

open Memhog_compiler

let icbrt n =
  let r = int_of_float (Float.cbrt (float_of_int n)) in
  let rec fix r = if r * r * r > n then fix (r - 1) else r in
  fix (r + 2)

(* One reference of a 7-point stencil on [grid], offset by [oi] planes,
   [oj] rows and [ok] elements from the centre, at level base [BASE]. *)
let at grid ~oi ~oj ~ok ~write =
  let sp =
    List.filter (fun (_, k) -> k <> 0) [ ("BASE", 1); ("NSQ", oi); ("N", oj) ]
  in
  {
    Ir.r_array = grid;
    r_access =
      Ir.Direct
        {
          Ir.sc = ok;
          sp;
          st =
            [
              ("i", Ir.C_param "NSQ");
              ("j", Ir.C_param "N");
              ("k", Ir.C_const 1);
            ];
        };
    r_write = write;
  }

let stencil7 grid =
  [
    at grid ~oi:0 ~oj:0 ~ok:0 ~write:false;
    at grid ~oi:1 ~oj:0 ~ok:0 ~write:false;
    at grid ~oi:(-1) ~oj:0 ~ok:0 ~write:false;
    at grid ~oi:0 ~oj:1 ~ok:0 ~write:false;
    at grid ~oi:0 ~oj:(-1) ~ok:0 ~write:false;
    at grid ~oi:0 ~oj:0 ~ok:1 ~write:false;
    at grid ~oi:0 ~oj:0 ~ok:(-1) ~write:false;
  ]

let sweep_proc name ~stencil_reads ~point_reads ~writes ~work =
  let body_refs =
    List.concat_map stencil7 stencil_reads
    @ List.map (fun g -> at g ~oi:0 ~oj:0 ~ok:0 ~write:false) point_reads
    @ List.map (fun g -> at g ~oi:0 ~oj:0 ~ok:0 ~write:true) writes
  in
  let dim = Ir.add_const (Ir.param "N") (-1) in
  {
    Ir.p_name = name;
    p_body =
      Ir.loop ~var:"i" ~lo:(Ir.cst 1) ~hi:dim
        (Ir.loop ~var:"j" ~lo:(Ir.cst 1) ~hi:dim
           (Ir.loop ~var:"k" ~lo:(Ir.cst 1) ~hi:dim
              (Ir.S_body { Ir.refs = body_refs; work_ns_per_iter = work })));
  }

let make ~mem_bytes ~page_bytes =
  ignore page_bytes;
  let nf = icbrt (mem_bytes * 18 / 10 / 8) in
  let nf = Int.max 32 (nf / 16 * 16) in
  let levels = [ nf; nf / 2; nf / 4; nf / 8 ] in
  let base_of =
    let rec go acc = function
      | [] -> []
      | n :: rest -> acc :: go (acc + (n * n * n)) rest
    in
    go 0 levels
  in
  let total = List.fold_left (fun acc n -> acc + (n * n * n)) 0 levels in
  let arrays =
    [
      Ir.array_decl "u" ~size:(Ir.param "TOTAL");
      Ir.array_decl "v" ~size:(Ir.param "TOTAL");
      Ir.array_decl "r" ~size:(Ir.param "TOTAL");
    ]
  in
  let procs =
    [
      (* residual: r = v - A u (stencil on u, point reads of v) *)
      sweep_proc "resid" ~stencil_reads:[ "u" ] ~point_reads:[ "v" ]
        ~writes:[ "r" ] ~work:85;
      (* smoother: u = u + M r (stencil on r) *)
      sweep_proc "psinv" ~stencil_reads:[ "r" ] ~point_reads:[]
        ~writes:[ "u" ] ~work:75;
    ]
  in
  let call name n base =
    Ir.S_call
      (name, [ ("N", Ir.cst n); ("NSQ", Ir.cst (n * n)); ("BASE", Ir.cst base) ])
  in
  (* Each level runs a residual sweep immediately followed by a smoothing
     sweep over the same grid: reuse between the two independent loop nests
     is invisible to the compiler, so the first sweep's releases are
     partially rescued by the second. *)
  let pair n base = [ call "resid" n base; call "psinv" n base ] in
  let down = List.concat (List.map2 pair levels base_of) in
  let up = List.concat (List.rev (List.map2 pair levels base_of)) in
  let prog =
    {
      Ir.prog_name = "mgrid";
      arrays;
      (* one compiled version: no assumption can cover every level *)
      assumptions =
        [ ("N", None); ("NSQ", None); ("BASE", None); ("TOTAL", Some total) ];
      procs;
      main = Ir.S_seq (down @ up);
    }
  in
  (prog, [ ("TOTAL", total) ])
