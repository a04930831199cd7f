module A = Analysis

type ctx = {
  prog : Ir.program;
  target : A.target;
  variant : Pir.variant;
  conservative : bool;
  stats : Pir.gen_stats;
  mutable next_tag : int;
  slots : (string, int) Hashtbl.t;  (* run-time name -> environment slot *)
}

let fresh_tag ctx =
  let t = ctx.next_tag in
  ctx.next_tag <- t + 1;
  t

let emit_prefetch ctx = ctx.variant <> Pir.V_original
let emit_release ctx = ctx.variant = Pir.V_release

(* ------------------------------------------------------------------ *)
(* Runtime-expression helpers                                          *)
(* ------------------------------------------------------------------ *)

(* Parameters, loop variables and call bindings share one namespace, as in
   [Ir.env]; each name gets the next slot the first time it is seen. *)
let slot_of ctx name =
  match Hashtbl.find_opt ctx.slots name with
  | Some s -> s
  | None ->
      let s = Hashtbl.length ctx.slots in
      Hashtbl.add ctx.slots name s;
      s

let rt_bound ctx b = Ir.compile_bound ~slot:(slot_of ctx) b
let rt_const n _env = n

(* The term actually moving [var] (opaque terms included: generated code
   computes real addresses even when the analysis was blind to them). *)
let actual_term (s : Ir.subscript) var =
  match List.assoc_opt var s.Ir.st with
  | Some (Ir.C_const 0) | None -> None
  | Some c -> Some c

(* Innermost path variable that actually moves the subscript. *)
let actual_advance (path : Ir.loop list) (s : Ir.subscript) =
  List.fold_left
    (fun acc (l : Ir.loop) ->
      match actual_term s l.Ir.l_var with Some _ -> Some l.Ir.l_var | None -> acc)
    None path

let stride_rt ctx s var =
  match actual_term s var with
  | Some c -> Ir.compile_coef ~slot:(slot_of ctx) c
  | None -> rt_const 0

let sub_rt ctx s = Ir.compile_subscript ~slot:(slot_of ctx) s

let sub_shifted_rt ctx s var delta =
  let sub = sub_rt ctx s and stride = stride_rt ctx s var in
  fun env -> sub env + (delta * stride env)

(* Subscript with [var] pinned to the loop's lower bound (for prologues). *)
let sub_at_rt ctx s var at = Ir.compile_subscript ~pin:(var, at) ~slot:(slot_of ctx) s

(* ------------------------------------------------------------------ *)
(* Pipelining distance                                                 *)
(* ------------------------------------------------------------------ *)

let prefetch_distance_chunks ~(target : A.target) ~chunk_ns =
  let d =
    if chunk_ns <= 0 then 64
    else (target.A.fault_latency_ns + chunk_ns - 1) / chunk_ns
  in
  Int.max 1 (Int.min 64 d)

(* ------------------------------------------------------------------ *)
(* Directive construction                                              *)
(* ------------------------------------------------------------------ *)

let mk_dir ctx ~array ~first ~count ~stride ~desc =
  {
    Pir.d_array = array;
    d_first = first;
    d_count = count;
    d_stride = stride;
    d_tag = fresh_tag ctx;
    d_desc = desc;
  }

(* Directives for one reference that advances along loop [var] with bounds
   [lo, hi) stepped by [step] ([step] = chunk size for strip-mined loops,
   1 for element loops).  [dist] is the prefetch lookahead in elements of
   the loop variable. *)
type ref_site = {
  rs_ref : A.ref_ann;
  rs_sub : Ir.subscript;
}

let retained_site (site : ref_site) =
  match site.rs_ref.A.ra_dir with
  | Some d -> d.A.da_retained
  | None -> false

let prefetches_for ctx ~var ~lo ~hi ~step ~dist (sites : ref_site list) =
  if not (emit_prefetch ctx) then ([], [])
  else
    List.fold_left
      (fun (pro, steady) site ->
        if
          (not site.rs_ref.A.ra_is_leader)
          || (ctx.conservative && retained_site site)
        then (pro, steady)
        else begin
          ctx.stats.Pir.gs_prefetch_sites <- ctx.stats.Pir.gs_prefetch_sites + 1;
          let s = site.rs_sub in
          let array = site.rs_ref.A.ra_ref.Ir.r_array in
          let desc = Printf.sprintf "%s@%s" array var in
          (* Prologue: cover the first [dist] elements of the loop range. *)
          let prologue =
            Pir.P_prefetch
              (mk_dir ctx ~array
                 ~first:(sub_at_rt ctx s var lo)
                 ~count:(fun env -> Int.max 0 (Int.min dist (hi env - lo env)))
                 ~stride:(stride_rt ctx s var)
                 ~desc:(desc ^ " prologue"))
          in
          (* Steady state: fetch [dist] ahead of the current position.  The
             lookahead deliberately runs past this loop's bound — for a
             linearized array the next outer iteration continues at exactly
             that address, which is how the pipeline spans row boundaries;
             the evaluator clamps at the end of the array. *)
          let steady_d =
            Pir.P_prefetch
              (mk_dir ctx ~array
                 ~first:(sub_shifted_rt ctx s var dist)
                 ~count:(rt_const step)
                 ~stride:(stride_rt ctx s var)
                 ~desc)
          in
          (prologue :: pro, steady_d :: steady)
        end)
      ([], []) sites

let releases_for ctx ~var ~lo ~hi ~step (sites : ref_site list) =
  if not (emit_release ctx) then ([], [])
  else
    List.fold_left
      (fun (steady, epi) site ->
        let ra = site.rs_ref in
        match ra.A.ra_dir with
        | Some d
          when ra.A.ra_is_trailer && not (ctx.conservative && d.A.da_retained) ->
            ctx.stats.Pir.gs_release_sites <- ctx.stats.Pir.gs_release_sites + 1;
            let s = site.rs_sub in
            let array = ra.A.ra_ref.Ir.r_array in
            let desc = Printf.sprintf "%s@%s" array var in
            let priority = d.A.da_priority in
            let v_slot = slot_of ctx var in
            (* Steady state: release the chunk the trailing reference has
               fully passed (one step behind). *)
            let steady_d =
              Pir.P_release
                {
                  dir =
                    mk_dir ctx ~array
                      ~first:(sub_shifted_rt ctx s var (-step))
                      ~count:(fun env ->
                        let v = env.(v_slot) in
                        if v - step < lo env then 0
                        else Int.max 0 (Int.min step (hi env - (v - step))))
                      ~stride:(stride_rt ctx s var)
                      ~desc;
                  priority;
                }
            in
            (* Epilogue: the final step's data. *)
            let last_start env =
              let l = lo env and h = hi env in
              if h <= l then l else l + ((h - l - 1) / step * step)
            in
            let epi_d =
              Pir.P_release
                {
                  dir =
                    mk_dir ctx ~array
                      ~first:(sub_at_rt ctx s var last_start)
                      ~count:(fun env -> Int.max 0 (hi env - last_start env))
                      ~stride:(stride_rt ctx s var)
                      ~desc:(desc ^ " epilogue");
                  priority;
                }
            in
            (steady_d :: steady, epi_d :: epi)
        | _ -> (steady, epi))
      ([], []) sites

(* ------------------------------------------------------------------ *)
(* Body lowering inside a strip-mined innermost loop                   *)
(* ------------------------------------------------------------------ *)

let elems_per_page ctx (b : Ir.body) =
  let max_elem =
    List.fold_left
      (fun acc r -> Int.max acc (Ir.find_array ctx.prog r.Ir.r_array).Ir.a_elem_bytes)
      8 b.Ir.refs
  in
  Int.max 1 (ctx.target.A.page_bytes / max_elem)

let touches_for ctx ~chunk_count (ba : A.body_ann) =
  List.concat_map
    (fun (ra : A.ref_ann) ->
      let r = ra.A.ra_ref in
      match r.Ir.r_access with
      | Ir.Direct s ->
          [
            Pir.P_touch
              {
                array = r.Ir.r_array;
                first = sub_rt ctx s;
                count = chunk_count;
                stride =
                  (match ba.A.ba_path with
                  | [] -> rt_const 0
                  | path ->
                      let inner = (List.nth path (List.length path - 1)).Ir.l_var in
                      stride_rt ctx s inner);
                write = r.Ir.r_write;
              };
          ]
      | Ir.Indirect { every; _ } ->
          [
            Pir.P_indirect
              {
                array = r.Ir.r_array;
                count =
                  (fun env ->
                    let c = chunk_count env in
                    if c <= 0 then 0 else (c + every - 1) / every);
                write = r.Ir.r_write;
                lookahead = 64;
                prefetch = emit_prefetch ctx;
                stream = (ba.A.ba_id * 64) + ra.A.ra_index;
              };
          ])
    ba.A.ba_refs

(* Sites of a body whose references actually advance along [var]. *)
let sites_advancing (ba : A.body_ann) var =
  List.filter_map
    (fun (ra : A.ref_ann) ->
      match ra.A.ra_ref.Ir.r_access with
      | Ir.Direct s when actual_advance ba.A.ba_path s = Some var ->
          Some { rs_ref = ra; rs_sub = s }
      | _ -> None)
    ba.A.ba_refs

(* Sites of a body whose references never advance inside this nest. *)
let sites_invariant (ba : A.body_ann) =
  List.filter_map
    (fun (ra : A.ref_ann) ->
      match ra.A.ra_ref.Ir.r_access with
      | Ir.Direct s when actual_advance ba.A.ba_path s = None ->
          Some { rs_ref = ra; rs_sub = s }
      | _ -> None)
    ba.A.ba_refs

let rec direct_bodies = function
  | A.A_body b -> Some [ b ]
  | A.A_seq ss ->
      List.fold_left
        (fun acc s ->
          match (acc, direct_bodies s) with
          | Some a, Some b -> Some (a @ b)
          | _ -> None)
        (Some []) ss
  | A.A_loop _ | A.A_call _ -> None

(* Strip-mined lowering of an innermost loop whose body is plain. *)
let gen_chunk_loop ctx (l : Ir.loop) (bodies : A.body_ann list) =
  ctx.stats.Pir.gs_chunk_loops <- ctx.stats.Pir.gs_chunk_loops + 1;
  let var = l.Ir.l_var in
  let slot = slot_of ctx var in
  let lo = rt_bound ctx l.Ir.l_lo and hi = rt_bound ctx l.Ir.l_hi in
  let k =
    List.fold_left (fun acc b -> Int.min acc (elems_per_page ctx b.A.ba_body)) max_int
      bodies
  in
  let k = if k = max_int then 2048 else k in
  let work_ns =
    List.fold_left (fun acc b -> acc + b.A.ba_body.Ir.work_ns_per_iter) 0 bodies
  in
  let chunk_ns = k * work_ns in
  let dist_chunks = prefetch_distance_chunks ~target:ctx.target ~chunk_ns in
  ctx.stats.Pir.gs_prefetch_distance <-
    Int.max ctx.stats.Pir.gs_prefetch_distance dist_chunks;
  let dist = dist_chunks * k in
  let chunk_count env = Int.max 0 (Int.min k (hi env - env.(slot))) in
  let all_pro = ref [] and all_steady_pf = ref [] in
  let all_steady_rel = ref [] and all_epi = ref [] in
  let all_touches = ref [] in
  List.iter
    (fun ba ->
      let sites = sites_advancing ba var in
      let pro, steady = prefetches_for ctx ~var ~lo ~hi ~step:k ~dist sites in
      let rel, epi = releases_for ctx ~var ~lo ~hi ~step:k sites in
      all_pro := !all_pro @ pro;
      all_steady_pf := !all_steady_pf @ steady;
      all_steady_rel := !all_steady_rel @ rel;
      all_epi := !all_epi @ epi;
      all_touches :=
        !all_touches
        @ touches_for ctx ~chunk_count ba
        @ [ Pir.P_compute { ns = (fun env -> chunk_count env * ba.A.ba_body.Ir.work_ns_per_iter) } ])
    bodies;
  Pir.P_seq
    (!all_pro
    @ [
        Pir.P_loop
          {
            var;
            slot;
            lo;
            hi;
            step = k;
            body = Pir.P_seq (!all_steady_pf @ !all_touches @ !all_steady_rel);
          };
      ]
    @ !all_epi)

(* ------------------------------------------------------------------ *)
(* Tree walk                                                           *)
(* ------------------------------------------------------------------ *)

(* All annotated bodies in a subtree (for outer-level directive placement). *)
let rec bodies_in = function
  | A.A_body b -> [ b ]
  | A.A_seq ss -> List.concat_map bodies_in ss
  | A.A_loop (_, s) -> bodies_in s
  | A.A_call _ -> []

let rec gen ctx ~(depth : int) (ann : A.ann_stmt) =
  match ann with
  | A.A_body ba ->
      (* A body outside any loop: touch everything once. *)
      let one env = ignore env; 1 in
      Pir.P_seq
        (touches_for ctx ~chunk_count:one ba
        @ [ Pir.P_compute { ns = (fun _ -> ba.A.ba_body.Ir.work_ns_per_iter) } ])
  | A.A_seq ss -> Pir.P_seq (List.map (gen ctx ~depth) ss)
  | A.A_call (name, binds) ->
      Pir.P_call
        {
          proc = name;
          binds = List.map (fun (p, b) -> (slot_of ctx p, rt_bound ctx b)) binds;
        }
  | A.A_loop (l, child) -> (
      match direct_bodies child with
      | Some bodies -> wrap_invariants ctx ~depth l child (gen_chunk_loop ctx l bodies)
      | None ->
          (* Element loop: place directives for references that advance at
             this level around the child statement. *)
          let var = l.Ir.l_var in
          let slot = slot_of ctx var in
          let lo = rt_bound ctx l.Ir.l_lo and hi = rt_bound ctx l.Ir.l_hi in
          let sites =
            List.concat_map (fun ba -> sites_advancing ba var) (bodies_in child)
          in
          let pro, steady_pf = prefetches_for ctx ~var ~lo ~hi ~step:1 ~dist:1 sites in
          let steady_rel, epi = releases_for ctx ~var ~lo ~hi ~step:1 sites in
          let inner = gen ctx ~depth:(depth + 1) child in
          let body = Pir.P_seq (steady_pf @ [ inner ] @ steady_rel) in
          wrap_invariants ctx ~depth l child
            (Pir.P_seq (pro @ [ Pir.P_loop { var; slot; lo; hi; step = 1; body } ] @ epi)))

(* At the root of a nest, add one-shot prefetch/release for references that
   never advance inside it. *)
and wrap_invariants ctx ~depth l child pstmt =
  ignore l;
  if depth > 0 then pstmt
  else begin
    let sites = List.concat_map sites_invariant (bodies_in child) in
    let pre, post =
      List.fold_left
        (fun (pre, post) site ->
          let ra = site.rs_ref in
          let array = ra.A.ra_ref.Ir.r_array in
          let s = site.rs_sub in
          let pre =
            if emit_prefetch ctx && ra.A.ra_is_leader then begin
              ctx.stats.Pir.gs_prefetch_sites <- ctx.stats.Pir.gs_prefetch_sites + 1;
              Pir.P_prefetch
                (mk_dir ctx ~array ~first:(sub_rt ctx s) ~count:(rt_const 1)
                   ~stride:(rt_const 0)
                   ~desc:(array ^ " invariant"))
              :: pre
            end
            else pre
          in
          let post =
            match ra.A.ra_dir with
            | Some d
              when emit_release ctx && ra.A.ra_is_trailer
                   && not (ctx.conservative && d.A.da_retained) ->
                ctx.stats.Pir.gs_release_sites <- ctx.stats.Pir.gs_release_sites + 1;
                Pir.P_release
                  {
                    dir =
                      mk_dir ctx ~array ~first:(sub_rt ctx s) ~count:(rt_const 1)
                        ~stride:(rt_const 0)
                        ~desc:(array ^ " invariant");
                    priority = d.A.da_priority;
                  }
                :: post
            | _ -> post
          in
          (pre, post))
        ([], []) sites
    in
    Pir.P_seq (pre @ [ pstmt ] @ post)
  end

let compile ?(conservative = false) ~variant (ann : A.t) =
  let stats =
    {
      Pir.gs_prefetch_sites = 0;
      gs_release_sites = 0;
      gs_chunk_loops = 0;
      gs_prefetch_distance = 0;
    }
  in
  let ctx =
    {
      prog = ann.A.ap_prog;
      target = ann.A.ap_target;
      variant;
      conservative;
      stats;
      next_tag = 0;
      slots = Hashtbl.create 16;
    }
  in
  let main = gen ctx ~depth:0 ann.A.ap_main in
  let procs = List.map (fun (name, a) -> (name, gen ctx ~depth:0 a)) ann.A.ap_procs in
  let slots = Array.make (Hashtbl.length ctx.slots) "" in
  Hashtbl.iter (fun name s -> slots.(s) <- name) ctx.slots;
  {
    Pir.px_name = ann.A.ap_prog.Ir.prog_name;
    px_arrays = ann.A.ap_prog.Ir.arrays;
    px_params = ann.A.ap_prog.Ir.assumptions;
    px_slots = slots;
    px_main = main;
    px_procs = procs;
    px_variant = variant;
    px_stats = stats;
  }
