(* Loop-nest IR; see ir.mli for the design rationale. *)

type bound = { bc : int; bt : (string * int) list }

let cst n = { bc = n; bt = [] }
let param p = { bc = 0; bt = [ (p, 1) ] }

let norm_terms terms =
  List.filter (fun (_, k) -> k <> 0) terms

let scale k b =
  { bc = k * b.bc; bt = norm_terms (List.map (fun (p, c) -> (p, k * c)) b.bt) }

let add a b =
  let merged =
    List.fold_left
      (fun acc (p, c) ->
        match List.assoc_opt p acc with
        | Some c0 -> (p, c0 + c) :: List.remove_assoc p acc
        | None -> (p, c) :: acc)
      a.bt b.bt
  in
  { bc = a.bc + b.bc; bt = norm_terms merged }

let add_const b n = { b with bc = b.bc + n }

type env = (string, int) Hashtbl.t

let env_of_list l =
  let h = Hashtbl.create (List.length l * 2) in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) l;
  h

let lookup env name =
  match Hashtbl.find_opt env name with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Ir: unbound variable %s" name)

let eval_bound env b =
  List.fold_left (fun acc (p, k) -> acc + (k * lookup env p)) b.bc b.bt

(* [c + sum k * env.(s)], specialised for the one- and two-term shapes the
   workloads use; longer forms loop over unboxed arrays. *)
let compile_linear c = function
  | [] -> fun _ -> c
  | [ (s, k) ] -> fun env -> c + (k * env.(s))
  | [ (s1, k1); (s2, k2) ] -> fun env -> c + (k1 * env.(s1)) + (k2 * env.(s2))
  | terms ->
      let ss = Array.of_list (List.map fst terms) in
      let ks = Array.of_list (List.map snd terms) in
      fun env ->
        let acc = ref c in
        for i = 0 to Array.length ss - 1 do
          acc := !acc + (ks.(i) * env.(ss.(i)))
        done;
        !acc

let compile_bound ~slot b =
  compile_linear b.bc (List.map (fun (p, k) -> (slot p, k)) b.bt)

type coef = C_const of int | C_param of string | C_opaque of string

type subscript = {
  sc : int;
  sp : (string * int) list;
  st : (string * coef) list;
}

type access = Direct of subscript | Indirect of { via : string; every : int }

type ref_ = { r_array : string; r_access : access; r_write : bool }

let direct ?(off = 0) ?(param_off = []) name terms ~write =
  { r_array = name; r_access = Direct { sc = off; sp = param_off; st = terms }; r_write = write }

let indirect ?(every = 1) name ~via ~write =
  if every < 1 then invalid_arg "Ir.indirect: every must be >= 1";
  { r_array = name; r_access = Indirect { via; every }; r_write = write }

let coef_value env = function
  | C_const c -> c
  | C_param p | C_opaque p -> lookup env p

let eval_subscript env s =
  let base =
    List.fold_left (fun acc (p, k) -> acc + (k * lookup env p)) s.sc s.sp
  in
  List.fold_left
    (fun acc (v, c) -> acc + (lookup env v * coef_value env c))
    base s.st

let compile_coef ~slot = function
  | C_const c -> fun _ -> c
  | C_param p | C_opaque p ->
      let s = slot p in
      fun env -> env.(s)

(* Parameter offsets and constant strides form a linear part; a parameter
   or opaque stride multiplies two slots. *)
let compile_subscript ?pin ~slot s =
  let linear =
    List.map (fun (p, k) -> (slot p, k)) s.sp
    @ List.filter_map
        (function v, C_const k -> Some (slot v, k) | _ -> None)
        s.st
  in
  let products =
    List.filter_map
      (function v, (C_param p | C_opaque p) -> Some (slot v, slot p) | _ -> None)
      s.st
  in
  let lin = compile_linear s.sc linear in
  let f =
    match products with
    | [] -> lin
    | [ (a, b) ] -> fun env -> lin env + (env.(a) * env.(b))
    | _ ->
        let xs = Array.of_list (List.map fst products) in
        let ys = Array.of_list (List.map snd products) in
        fun env ->
          let acc = ref (lin env) in
          for i = 0 to Array.length xs - 1 do
            acc := !acc + (env.(xs.(i)) * env.(ys.(i)))
          done;
          !acc
  in
  match pin with
  | None -> f
  | Some (v, at) ->
      let sv = slot v in
      fun env ->
        let x = at env in
        let saved = env.(sv) in
        env.(sv) <- x;
        let r = f env in
        env.(sv) <- saved;
        r

let coef_visible = function C_const _ | C_param _ -> true | C_opaque _ -> false

type body = { refs : ref_ list; work_ns_per_iter : int }

type stmt =
  | S_loop of loop
  | S_seq of stmt list
  | S_body of body
  | S_call of string * (string * bound) list

and loop = {
  l_var : string;
  l_lo : bound;
  l_hi : bound;
  l_known : bool;
  l_body : stmt;
}

let loop ?(known = true) ~var ~lo ~hi body =
  S_loop { l_var = var; l_lo = lo; l_hi = hi; l_known = known; l_body = body }

type array_decl = {
  a_name : string;
  a_elem_bytes : int;
  a_size_elems : bound;
  a_on_swap : bool;
}

type proc = { p_name : string; p_body : stmt }

type program = {
  prog_name : string;
  arrays : array_decl list;
  assumptions : (string * int option) list;
  procs : proc list;
  main : stmt;
}

let array_decl ?(on_swap = true) name ~size =
  { a_name = name; a_elem_bytes = 8; a_size_elems = size; a_on_swap = on_swap }

let find_array prog name =
  match List.find_opt (fun a -> a.a_name = name) prog.arrays with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ir: unknown array %s" name)

let find_proc prog name =
  match List.find_opt (fun p -> p.p_name = name) prog.procs with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Ir: unknown procedure %s" name)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate prog =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let arrays = List.map (fun a -> a.a_name) prog.arrays in
  let proc_names = List.map (fun p -> p.p_name) prog.procs in
  let check_ref bound_vars r =
    if not (List.mem r.r_array arrays) then err "unknown array %s" r.r_array;
    match r.r_access with
    | Direct s ->
        List.iter
          (fun (v, _) ->
            if not (List.mem v bound_vars) then
              err "subscript of %s uses unbound loop variable %s" r.r_array v)
          s.st
    | Indirect { via; _ } ->
        if not (List.mem via arrays) then
          err "indirect reference to %s through unknown index array %s" r.r_array via
  in
  let rec check_stmt bound_vars = function
    | S_loop l ->
        if List.mem l.l_var bound_vars then
          err "loop variable %s shadows an enclosing loop" l.l_var;
        check_stmt (l.l_var :: bound_vars) l.l_body
    | S_seq stmts -> List.iter (check_stmt bound_vars) stmts
    | S_body b ->
        if b.work_ns_per_iter < 0 then err "negative work per iteration";
        List.iter (check_ref bound_vars) b.refs
    | S_call (name, _) ->
        if not (List.mem name proc_names) then err "unknown procedure %s" name
  in
  check_stmt [] prog.main;
  List.iter (fun p -> check_stmt [] p.p_body) prog.procs;
  match !errors with
  | [] -> Ok prog.prog_name
  | errs -> Error (String.concat "; " (List.rev errs))

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_bound fmt b =
  let parts =
    (if b.bc <> 0 || b.bt = [] then [ string_of_int b.bc ] else [])
    @ List.map
        (fun (p, k) -> if k = 1 then p else Printf.sprintf "%d*%s" k p)
        b.bt
  in
  Format.pp_print_string fmt (String.concat "+" parts)

let pp_coef fmt = function
  | C_const c -> Format.pp_print_int fmt c
  | C_param p -> Format.pp_print_string fmt p
  | C_opaque p -> Format.fprintf fmt "?%s?" p

let pp_subscript fmt s =
  let parts =
    (if s.sc <> 0 then [ string_of_int s.sc ] else [])
    @ List.map (fun (p, k) -> if k = 1 then p else Printf.sprintf "%d*%s" k p) s.sp
    @ List.map
        (fun (v, c) -> Format.asprintf "%a*%s" pp_coef c v)
        s.st
  in
  Format.pp_print_string fmt
    (match parts with [] -> "0" | _ -> String.concat " + " parts)

let pp_ref fmt r =
  match r.r_access with
  | Direct s ->
      Format.fprintf fmt "%s[%a]%s" r.r_array pp_subscript s
        (if r.r_write then " (w)" else "")
  | Indirect { via; _ } ->
      Format.fprintf fmt "%s[%s[.]]%s" r.r_array via (if r.r_write then " (w)" else "")

let rec pp_stmt fmt = function
  | S_loop l ->
      Format.fprintf fmt "@[<v 2>for %s = %a .. %a%s {@,%a@]@,}" l.l_var pp_bound
        l.l_lo pp_bound l.l_hi
        (if l.l_known then "" else " (bounds unknown)")
        pp_stmt l.l_body
  | S_seq stmts ->
      Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt fmt stmts
  | S_body b ->
      Format.fprintf fmt "@[<v>%a@,work %dns@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_ref)
        b.refs b.work_ns_per_iter
  | S_call (name, binds) ->
      Format.fprintf fmt "call %s(%s)" name
        (String.concat ", "
           (List.map (fun (p, b) -> Format.asprintf "%s=%a" p pp_bound b) binds))

let pp_program fmt prog =
  Format.fprintf fmt "@[<v>program %s@," prog.prog_name;
  List.iter
    (fun a ->
      Format.fprintf fmt "array %s : %a elems x %dB%s@," a.a_name pp_bound
        a.a_size_elems a.a_elem_bytes
        (if a.a_on_swap then " (on swap)" else ""))
    prog.arrays;
  List.iter
    (fun p -> Format.fprintf fmt "@[<v 2>proc %s {@,%a@]@,}@," p.p_name pp_stmt p.p_body)
    prog.procs;
  Format.fprintf fmt "%a@]" pp_stmt prog.main
