type target = {
  memory_pages : int;
  page_bytes : int;
  fault_latency_ns : int;
}

let default_target =
  { memory_pages = 4800; page_bytes = 16 * 1024; fault_latency_ns = 11_000_000 }

type dir_ann = {
  da_temporal : (string * int) list;
  da_spatial : string list;
  da_advance : (string * int option) option;
  da_priority : int;
  da_retained : bool;
}

type ref_ann = {
  ra_index : int;
  ra_ref : Ir.ref_;
  ra_dir : dir_ann option;
  ra_group : int;
  ra_is_leader : bool;
  ra_is_trailer : bool;
}

type body_ann = {
  ba_id : int;
  ba_body : Ir.body;
  ba_path : Ir.loop list;
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
}

type t = {
  ap_prog : Ir.program;
  ap_target : target;
  ap_main : ann_stmt;
  ap_procs : (string * ann_stmt) list;
  ap_stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Compile-time assumptions                                            *)
(* ------------------------------------------------------------------ *)

let assumed_value prog p =
  match List.assoc_opt p prog.Ir.assumptions with Some v -> v | None -> None

let assumed_coef prog = function
  | Ir.C_const c -> Some c
  | Ir.C_param p -> assumed_value prog p
  | Ir.C_opaque _ -> Some 0 (* invisible to dependence analysis *)

(* Evaluate a symbolic bound under the compiler's assumptions, if possible. *)
let assumed_bound prog (b : Ir.bound) =
  List.fold_left
    (fun acc (p, k) ->
      match (acc, assumed_value prog p) with
      | Some a, Some v -> Some (a + (k * v))
      | _ -> None)
    (Some b.Ir.bc) b.Ir.bt

(* Trip-count estimate: [None] means "unknown, assume large". *)
let assumed_trips prog (l : Ir.loop) =
  if not l.Ir.l_known then None
  else
    match (assumed_bound prog l.Ir.l_lo, assumed_bound prog l.Ir.l_hi) with
    | Some lo, Some hi -> Some (Int.max 0 (hi - lo))
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-reference reuse classification                                  *)
(* ------------------------------------------------------------------ *)

let term_for (s : Ir.subscript) var = List.assoc_opt var s.Ir.st

(* The visible stride of [var] in subscript [s]: Some 0 if the variable does
   not (visibly) move the reference; None if it moves it by an unknown
   amount. *)
let visible_stride prog s var =
  match term_for s var with
  | None -> Some 0
  | Some c -> (
      if not (Ir.coef_visible c) then Some 0
      else
        match assumed_coef prog c with
        | Some v -> Some v
        | None -> None (* symbolic stride without assumption *))

let has_opaque_term s var =
  match term_for s var with
  | Some (Ir.C_opaque _) -> true
  | _ -> false

let classify_ref prog ~stats ~page_bytes ~(path : Ir.loop list) (r : Ir.ref_) =
  match r.Ir.r_access with
  | Ir.Indirect _ -> None
  | Ir.Direct s ->
      let elem = (Ir.find_array prog r.Ir.r_array).Ir.a_elem_bytes in
      let temporal = ref [] and spatial = ref [] in
      let advance = ref None in
      List.iteri
        (fun depth (l : Ir.loop) ->
          let var = l.Ir.l_var in
          match visible_stride prog s var with
          | Some 0 ->
              (* no (visible) dependence: temporal reuse along this loop *)
              if has_opaque_term s var then
                stats.st_false_temporal <- stats.st_false_temporal + 1;
              temporal := (var, depth) :: !temporal
          | Some c ->
              if abs c * elem < page_bytes then spatial := var :: !spatial;
              advance := Some (var, Some c)
          | None ->
              (* moves by an unknown symbolic stride *)
              advance := Some (var, None))
        path;
      Some (List.rev !temporal, List.rev !spatial, !advance)

(* Equation 2. *)
let priority_of ~temporal =
  List.fold_left (fun acc (_, depth) -> acc + (1 lsl depth)) 0 temporal

(* ------------------------------------------------------------------ *)
(* Data-volume estimation (locality analysis)                          *)
(* ------------------------------------------------------------------ *)

let elem_bytes_of (a : Ir.array_decl) = a.Ir.a_elem_bytes

(* Pages one reference touches while the loops [inside] run once each;
   [None] = unbounded / unknown (assume it exceeds memory). *)
let pages_touched prog ~page_bytes ~(inside : Ir.loop list) (r : Ir.ref_) =
  let arr = Ir.find_array prog r.Ir.r_array in
  let cap =
    match assumed_bound prog arr.Ir.a_size_elems with
    | Some elems ->
        Some (((elems * arr.Ir.a_elem_bytes) + page_bytes - 1) / page_bytes)
    | None -> None
  in
  let capped pages =
    match cap with Some c -> Some (Int.min pages c) | None -> Some pages
  in
  match r.Ir.r_access with
  | Ir.Indirect _ ->
      (* every iteration may touch a fresh random page *)
      let total_trips =
        List.fold_left
          (fun acc l ->
            match (acc, assumed_trips prog l) with
            | Some a, Some t -> Some (a * t)
            | _ -> None)
          (Some 1) inside
      in
      (match (total_trips, cap) with
      | Some t, Some c -> Some (Int.min t c)
      | Some t, None -> Some t
      | None, Some c -> Some c
      | None, None -> None)
  | Ir.Direct s ->
      let extent =
        List.fold_left
          (fun acc (l : Ir.loop) ->
            match acc with
            | None -> None
            | Some bytes -> (
                match
                  (visible_stride prog s l.Ir.l_var, assumed_trips prog l)
                with
                | Some 0, _ -> acc
                | Some c, Some trips ->
                    Some (bytes + (abs c * elem_bytes_of arr * Int.max 0 (trips - 1)))
                | Some _, None | None, _ -> None))
          (Some (elem_bytes_of arr)) inside
      in
      (match extent with
      | Some bytes -> capped ((bytes + page_bytes - 1) / page_bytes)
      | None -> cap)

(* All (body, loops-inside-v) pairs in the subtree rooted under loop [v]. *)
let rec bodies_under acc inside = function
  | Ir.S_loop l -> bodies_under acc (inside @ [ l ]) l.Ir.l_body
  | Ir.S_seq ss -> List.fold_left (fun acc s -> bodies_under acc inside s) acc ss
  | Ir.S_body b -> (b, inside) :: acc
  | Ir.S_call _ -> acc (* inter-procedural volume is not analyzed *)

(* Volume of data touched during one iteration of loop [v]. *)
let volume_of_iteration prog ~page_bytes (v : Ir.loop) =
  let bodies = bodies_under [] [] v.Ir.l_body in
  List.fold_left
    (fun acc (b, inside) ->
      List.fold_left
        (fun acc r ->
          match (acc, pages_touched prog ~page_bytes ~inside r) with
          | Some a, Some p -> Some (a + p)
          | _ -> None)
        acc b.Ir.refs)
    (Some 0) bodies

(* ------------------------------------------------------------------ *)
(* Group locality                                                      *)
(* ------------------------------------------------------------------ *)

(* Two subscripts with identical loop-variable terms may form a group.  The
   constant/parameter offset difference must be expressible as a small
   number of iterations of the enclosing loops plus a sub-page remainder. *)

let same_terms (a : Ir.subscript) (b : Ir.subscript) =
  let norm s = List.sort compare s.Ir.st in
  norm a = norm b

(* delta = a - b as (const, param-terms) *)
let subscript_delta (a : Ir.subscript) (b : Ir.subscript) =
  let merge xs ys =
    let keys = List.sort_uniq compare (List.map fst xs @ List.map fst ys) in
    List.filter_map
      (fun k ->
        let gx = Option.value ~default:0 (List.assoc_opt k xs) in
        let gy = Option.value ~default:0 (List.assoc_opt k ys) in
        if gx - gy = 0 then None else Some (k, gx - gy))
      keys
  in
  (a.Ir.sc - b.Ir.sc, merge a.Ir.sp b.Ir.sp)

(* Express the delta as iteration counts of the path loops (outermost
   first); returns the iteration-distance vector when each component is
   small and the remainder is sub-page. *)
let delta_in_iterations _prog ~page_bytes ~elem ~(path : Ir.loop list)
    (s : Ir.subscript) (dc, dp) =
  let max_iters = 4 in
  let dconst = ref dc and dparams = ref dp in
  let dvec =
    List.map
      (fun (l : Ir.loop) ->
        match term_for s l.Ir.l_var with
        | Some (Ir.C_param p) ->
            (* stride is exactly the parameter: extract its multiples *)
            let k = Option.value ~default:0 (List.assoc_opt p !dparams) in
            dparams := List.remove_assoc p !dparams;
            k
        | Some (Ir.C_const c) when c <> 0 ->
            let k =
              if !dconst = 0 then 0
              else
                let q = !dconst / c in
                if abs q <= max_iters then q else 0
            in
            (* only commit the quotient if it actually reduces the rest to a
               sub-page remainder later; a partial heuristic is fine *)
            if k <> 0 && abs (!dconst - (k * c)) * elem < page_bytes then begin
              dconst := !dconst - (k * c);
              k
            end
            else 0
        | _ -> 0)
      path
  in
  if !dparams = [] && abs !dconst * elem < page_bytes
     && List.for_all (fun d -> abs d <= max_iters) dvec
  then Some dvec
  else None

let group_refs prog ~page_bytes ~(path : Ir.loop list) (refs : Ir.ref_ list) =
  (* returns, per ref index: (group id, delta vector option) *)
  let n = List.length refs in
  let arr = Array.of_list refs in
  let group = Array.make n (-1) in
  let dvecs = Array.make n [] in
  let next_group = ref 0 in
  for i = 0 to n - 1 do
    if group.(i) < 0 then begin
      let gid = !next_group in
      incr next_group;
      group.(i) <- gid;
      dvecs.(i) <- List.map (fun _ -> 0) path;
      (match arr.(i).Ir.r_access with
      | Ir.Indirect _ -> ()
      | Ir.Direct si ->
          let elem = (Ir.find_array prog arr.(i).Ir.r_array).Ir.a_elem_bytes in
          for j = i + 1 to n - 1 do
            if group.(j) < 0 && arr.(j).Ir.r_array = arr.(i).Ir.r_array then
              match arr.(j).Ir.r_access with
              | Ir.Direct sj when same_terms si sj -> (
                  let delta = subscript_delta sj si in
                  match delta_in_iterations prog ~page_bytes ~elem ~path si delta with
                  | Some dvec ->
                      group.(j) <- gid;
                      dvecs.(j) <- dvec
                  | None -> ())
              | _ -> ()
          done)
    end
  done;
  (group, dvecs)

(* ------------------------------------------------------------------ *)
(* Main traversal                                                      *)
(* ------------------------------------------------------------------ *)

let analyze ~target prog =
  let stats =
    {
      st_bodies = 0;
      st_direct_refs = 0;
      st_indirect_refs = 0;
      st_groups = 0;
      st_retained = 0;
      st_unknown_bound_loops = 0;
      st_false_temporal = 0;
    }
  in
  let page_bytes = target.page_bytes in
  let body_counter = ref 0 in
  let analyze_body ~(path : Ir.loop list) (b : Ir.body) =
    stats.st_bodies <- stats.st_bodies + 1;
    let refs = b.Ir.refs in
    let groups, dvecs = group_refs prog ~page_bytes ~path refs in
    let ngroups =
      Array.fold_left (fun acc g -> Int.max acc (g + 1)) 0 groups
    in
    stats.st_groups <- stats.st_groups + ngroups;
    (* leader = lexicographically greatest delta vector within the group
       (touches new data first under ascending loops); trailer = least. *)
    let leader = Array.make ngroups (-1) and trailer = Array.make ngroups (-1) in
    Array.iteri
      (fun i g ->
        if leader.(g) < 0 || dvecs.(i) > dvecs.(leader.(g)) then leader.(g) <- i;
        if trailer.(g) < 0 || dvecs.(i) < dvecs.(trailer.(g)) then trailer.(g) <- i)
      groups;
    let anns =
      List.mapi
        (fun i r ->
          let dir =
            match classify_ref prog ~stats ~page_bytes ~path r with
            | None ->
                stats.st_indirect_refs <- stats.st_indirect_refs + 1;
                None
            | Some (temporal, spatial, advance) ->
                stats.st_direct_refs <- stats.st_direct_refs + 1;
                (* Retained: some temporal reuse carried by a loop *outer*
                   than the level where the reference advances provably fits
                   in memory.  Reuse carried by loops inside the advance
                   level (e.g. y[i] re-touched on every j iteration) says
                   nothing about whether the page survives once the
                   reference has moved on. *)
                let advance_depth =
                  match advance with
                  | Some (var, _) -> (
                      let rec idx d = function
                        | [] -> d
                        | (l : Ir.loop) :: rest ->
                            if l.Ir.l_var = var then d else idx (d + 1) rest
                      in
                      idx 0 path)
                  | None -> List.length path
                in
                let retained =
                  List.exists
                    (fun (var, depth) ->
                      depth < advance_depth
                      &&
                      match
                        List.find_opt (fun l -> l.Ir.l_var = var) path
                      with
                      | None -> false
                      | Some l -> (
                          match volume_of_iteration prog ~page_bytes l with
                          | Some pages -> pages <= target.memory_pages
                          | None -> false))
                    temporal
                in
                if retained then stats.st_retained <- stats.st_retained + 1;
                Some
                  {
                    da_temporal = temporal;
                    da_spatial = spatial;
                    da_advance = advance;
                    da_priority = priority_of ~temporal;
                    da_retained = retained;
                  }
          in
          {
            ra_index = i;
            ra_ref = r;
            ra_dir = dir;
            ra_group = groups.(i);
            ra_is_leader = leader.(groups.(i)) = i;
            ra_is_trailer = trailer.(groups.(i)) = i;
          })
        refs
    in
    let id = !body_counter in
    incr body_counter;
    { ba_id = id; ba_body = b; ba_path = path; ba_refs = anns }
  in
  let rec walk path = function
    | Ir.S_loop l ->
        if not l.Ir.l_known then
          stats.st_unknown_bound_loops <- stats.st_unknown_bound_loops + 1;
        A_loop (l, walk (path @ [ l ]) l.Ir.l_body)
    | Ir.S_seq ss -> A_seq (List.map (walk path) ss)
    | Ir.S_body b -> A_body (analyze_body ~path b)
    | Ir.S_call (name, binds) -> A_call (name, binds)
  in
  let main = walk [] prog.Ir.main in
  let procs = List.map (fun (p : Ir.proc) -> (p.Ir.p_name, walk [] p.Ir.p_body)) prog.Ir.procs in
  { ap_prog = prog; ap_target = target; ap_main = main; ap_procs = procs; ap_stats = stats }

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_ref_ann fmt ra =
  let role =
    match (ra.ra_is_leader, ra.ra_is_trailer) with
    | true, true -> "solo"
    | true, false -> "leader"
    | false, true -> "trailer"
    | false, false -> "member"
  in
  match ra.ra_dir with
  | None ->
      Format.fprintf fmt "%s (indirect, group %d, %s)"
        ra.ra_ref.Ir.r_array ra.ra_group role
  | Some d ->
      Format.fprintf fmt "%s[...] group %d %s prio=%d%s temporal={%s} spatial={%s}"
        ra.ra_ref.Ir.r_array ra.ra_group role d.da_priority
        (if d.da_retained then " retained" else "")
        (String.concat "," (List.map fst d.da_temporal))
        (String.concat "," d.da_spatial)

let rec pp_ann fmt = function
  | A_loop (l, body) ->
      Format.fprintf fmt "@[<v 2>for %s%s:@,%a@]" l.Ir.l_var
        (if l.Ir.l_known then "" else " (unknown bounds)")
        pp_ann body
  | A_seq ss -> Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_ann fmt ss
  | A_body b ->
      Format.fprintf fmt "@[<v>body %d:@,%a@]" b.ba_id
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_ref_ann)
        b.ba_refs
  | A_call (name, _) -> Format.fprintf fmt "call %s" name

let pp fmt t =
  Format.fprintf fmt "@[<v>analysis of %s:@,%a@," t.ap_prog.Ir.prog_name pp_ann
    t.ap_main;
  List.iter
    (fun (name, ann) -> Format.fprintf fmt "@[<v 2>proc %s:@,%a@]@," name pp_ann ann)
    t.ap_procs;
  let s = t.ap_stats in
  Format.fprintf fmt
    "bodies=%d direct=%d indirect=%d groups=%d retained=%d unknown-loops=%d \
     false-temporal=%d@]"
    s.st_bodies s.st_direct_refs s.st_indirect_refs s.st_groups s.st_retained
    s.st_unknown_bound_loops s.st_false_temporal
