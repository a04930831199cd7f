type rt = int array -> int

type directive = {
  d_array : string;
  d_first : rt;
  d_count : rt;
  d_stride : rt;
  d_tag : int;
  d_desc : string;
}

type pstmt =
  | P_seq of pstmt list
  | P_loop of { var : string; slot : int; lo : rt; hi : rt; step : int; body : pstmt }
  | P_touch of { array : string; first : rt; count : rt; stride : rt; write : bool }
  | P_compute of { ns : rt }
  | P_prefetch of directive
  | P_release of { dir : directive; priority : int }
  | P_indirect of {
      array : string;
      count : rt;
      write : bool;
      lookahead : int;
      prefetch : bool;
      stream : int;
    }
  | P_call of { proc : string; binds : (int * rt) list }

type variant = V_original | V_prefetch | V_release

let variant_name = function
  | V_original -> "original"
  | V_prefetch -> "prefetch"
  | V_release -> "prefetch+release"

let variant_letter = function
  | V_original -> "O"
  | V_prefetch -> "P"
  | V_release -> "R"

type gen_stats = {
  mutable gs_prefetch_sites : int;
  mutable gs_release_sites : int;
  mutable gs_chunk_loops : int;
  mutable gs_prefetch_distance : int;
}

type prog = {
  px_name : string;
  px_arrays : Ir.array_decl list;
  px_params : (string * int option) list;
  px_slots : string array;
  px_main : pstmt;
  px_procs : (string * pstmt) list;
  px_variant : variant;
  px_stats : gen_stats;
}

let find_proc prog name =
  match List.assoc_opt name prog.px_procs with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Pir: unknown procedure %s" name)

type site_kind = S_prefetch | S_release

type site_info = {
  si_tag : int;
  si_kind : site_kind;
  si_array : string;
  si_desc : string;
  si_priority : int;
}

let sites prog =
  let acc = ref [] in
  let rec walk = function
    | P_seq ss -> List.iter walk ss
    | P_loop { body; _ } -> walk body
    | P_touch _ | P_compute _ | P_indirect _ | P_call _ -> ()
    | P_prefetch d ->
        acc :=
          {
            si_tag = d.d_tag;
            si_kind = S_prefetch;
            si_array = d.d_array;
            si_desc = d.d_desc;
            si_priority = 0;
          }
          :: !acc
    | P_release { dir = d; priority } ->
        acc :=
          {
            si_tag = d.d_tag;
            si_kind = S_release;
            si_array = d.d_array;
            si_desc = d.d_desc;
            si_priority = priority;
          }
          :: !acc
  in
  walk prog.px_main;
  List.iter (fun (_, p) -> walk p) prog.px_procs;
  List.sort (fun a b -> compare a.si_tag b.si_tag) !acc

let rec pp_stmt fmt = function
  | P_seq ss -> Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt fmt ss
  | P_loop { var; step; body; _ } ->
      Format.fprintf fmt "@[<v 2>for %s (step %d) {@,%a@]@,}" var step pp_stmt body
  | P_touch { array; write; _ } ->
      Format.fprintf fmt "touch %s%s" array (if write then " (w)" else "")
  | P_compute _ -> Format.fprintf fmt "compute"
  | P_prefetch d -> Format.fprintf fmt "prefetch %s" d.d_desc
  | P_release { dir; priority } ->
      Format.fprintf fmt "release %s priority=%d" dir.d_desc priority
  | P_indirect { array; prefetch; lookahead; _ } ->
      Format.fprintf fmt "indirect %s%s" array
        (if prefetch then Printf.sprintf " (prefetch +%d)" lookahead else "")
  | P_call { proc; _ } -> Format.fprintf fmt "call %s" proc

let pp fmt prog =
  Format.fprintf fmt "@[<v>%s [%s]@," prog.px_name (variant_name prog.px_variant);
  List.iter
    (fun (name, body) ->
      Format.fprintf fmt "@[<v 2>proc %s {@,%a@]@,}@," name pp_stmt body)
    prog.px_procs;
  Format.fprintf fmt "%a@," pp_stmt prog.px_main;
  Format.fprintf fmt
    "sites: %d prefetch, %d release; %d chunk loops; max distance %d chunks@]"
    prog.px_stats.gs_prefetch_sites prog.px_stats.gs_release_sites
    prog.px_stats.gs_chunk_loops prog.px_stats.gs_prefetch_distance
