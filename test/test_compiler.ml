(* Tests for the compiler: IR, reuse/locality analysis, group locality,
   equation-2 priorities, and code generation. *)

module Ir = Memhog_compiler.Ir
module Analysis = Memhog_compiler.Analysis
module Codegen = Memhog_compiler.Codegen
module Compile = Memhog_compiler.Compile
module Pir = Memhog_compiler.Pir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let target =
  { Analysis.memory_pages = 4800; page_bytes = 16384; fault_latency_ns = 12_000_000 }

(* ------------------------------------------------------------------ *)
(* IR basics                                                           *)
(* ------------------------------------------------------------------ *)

let test_bound_arithmetic () =
  let b = Ir.add (Ir.scale 3 (Ir.param "N")) (Ir.cst 7) in
  let env = Ir.env_of_list [ ("N", 10) ] in
  check_int "3N+7" 37 (Ir.eval_bound env b);
  let c = Ir.add b (Ir.scale (-3) (Ir.param "N")) in
  check_int "param cancelled" 7 (Ir.eval_bound env c);
  check_bool "no residual terms" true (c.Ir.bt = [])

let test_subscript_eval () =
  let s =
    {
      Ir.sc = 5;
      sp = [ ("BASE", 1) ];
      st = [ ("i", Ir.C_param "N"); ("j", Ir.C_const 1) ];
    }
  in
  let env = Ir.env_of_list [ ("N", 100); ("BASE", 1000); ("i", 3); ("j", 4) ] in
  check_int "base + i*N + j + 5" (1000 + 300 + 4 + 5) (Ir.eval_subscript env s)

let test_opaque_eval_uses_runtime_value () =
  let s = { Ir.sc = 0; sp = []; st = [ ("k", Ir.C_opaque "S") ] } in
  let env = Ir.env_of_list [ ("S", 4096); ("k", 3) ] in
  check_int "opaque stride evaluates" 12288 (Ir.eval_subscript env s);
  check_bool "but is invisible to analysis" false
    (Ir.coef_visible (Ir.C_opaque "S"))

(* The slot compilers against the name-keyed evaluators they replace on the
   execution path.  Slots are assigned in reverse name order so that a
   compiler mixing up names and slot indices cannot pass by accident.  The
   pinned case checks [compile_subscript ~pin] against rebinding the name
   in the table; its value reads the environment, and the pinned slot must
   get its own value back afterwards. *)
let slot_names = [| "N"; "M"; "S"; "i"; "j"; "k" |]

let slot_of name =
  let rec find i = if slot_names.(i) = name then i else find (i + 1) in
  Array.length slot_names - 1 - find 0

let compiled_case_arb =
  let open QCheck.Gen in
  let name = oneofa slot_names and small = int_range (-50) 50 in
  let coef =
    oneof
      [
        map (fun c -> Ir.C_const c) small;
        map (fun p -> Ir.C_param p) name;
        map (fun p -> Ir.C_opaque p) name;
      ]
  in
  let gen =
    let* bc = small in
    let* bt = list_size (int_range 0 4) (pair name small) in
    let* sc = small in
    let* sp = list_size (int_range 0 4) (pair name small) in
    let* st = list_size (int_range 0 4) (pair name coef) in
    let* values =
      array_size (return (Array.length slot_names)) (int_range (-1000) 1000)
    in
    let* pin = opt (triple name name small) in
    return ({ Ir.bc; bt }, { Ir.sc; sp; st }, values, pin)
  in
  QCheck.make gen ~print:(fun (b, s, values, pin) ->
      Format.asprintf "bound %a; subscript %a; values %s; pin %s" Ir.pp_bound b
        Ir.pp_subscript s
        (String.concat ","
           (Array.to_list
              (Array.mapi (fun i n -> Printf.sprintf "%s=%d" n values.(i)) slot_names)))
        (match pin with
        | Some (v, w, x) -> Printf.sprintf "%s := %s + %d" v w x
        | None -> "none"))

let prop_compiled_matches_ir =
  QCheck.Test.make ~name:"slot-compiled bounds and subscripts equal Ir's evaluators"
    ~count:1000 compiled_case_arb (fun (b, s, values, pin) ->
      let env =
        Ir.env_of_list
          (List.mapi (fun i n -> (n, values.(i))) (Array.to_list slot_names))
      in
      let slots = Array.make (Array.length slot_names) 0 in
      Array.iteri (fun i n -> slots.(slot_of n) <- values.(i)) slot_names;
      let before = Array.copy slots in
      let coefs_agree =
        List.for_all
          (fun (_, c) -> Ir.compile_coef ~slot:slot_of c slots = Ir.coef_value env c)
          s.Ir.st
      in
      let bound_agrees = Ir.compile_bound ~slot:slot_of b slots = Ir.eval_bound env b in
      let subscript_agrees =
        match pin with
        | None -> Ir.compile_subscript ~slot:slot_of s slots = Ir.eval_subscript env s
        | Some (v, w, x) ->
            let at env = env.(slot_of w) + x in
            let got = Ir.compile_subscript ~pin:(v, at) ~slot:slot_of s slots in
            Hashtbl.replace env v (Hashtbl.find env w + x);
            got = Ir.eval_subscript env s
      in
      coefs_agree && bound_agrees && subscript_agrees && slots = before)

let test_validate_catches_errors () =
  let bad =
    {
      Ir.prog_name = "bad";
      arrays = [ Ir.array_decl "a" ~size:(Ir.cst 100) ];
      assumptions = [];
      procs = [];
      main =
        Ir.loop ~var:"i" ~lo:(Ir.cst 0) ~hi:(Ir.cst 10)
          (Ir.S_body
             {
               Ir.refs =
                 [
                   Ir.direct "zz" [ ("i", Ir.C_const 1) ] ~write:false;
                   Ir.direct "a" [ ("q", Ir.C_const 1) ] ~write:false;
                 ];
               work_ns_per_iter = 1;
             });
    }
  in
  match Ir.validate bad with
  | Error msg ->
      check_bool "mentions unknown array" true (contains msg "unknown array zz");
      check_bool "mentions unbound variable" true (contains msg "unbound loop variable q")
  | Ok _ -> Alcotest.fail "expected validation failure"

(* ------------------------------------------------------------------ *)
(* A reusable matvec program (the paper's Figure 5 kernel)             *)
(* ------------------------------------------------------------------ *)

let matvec_prog ?(n = 7000) ?(known = true) () =
  {
    Ir.prog_name = "mv";
    arrays =
      [
        Ir.array_decl "A" ~size:(Ir.param "NN");
        Ir.array_decl "x" ~size:(Ir.param "N");
        Ir.array_decl "y" ~size:(Ir.param "N");
      ];
    assumptions =
      (if known then [ ("N", Some n); ("NN", Some (n * n)) ]
       else [ ("N", None); ("NN", None) ]);
    procs = [];
    main =
      Ir.loop ~var:"i" ~lo:(Ir.cst 0) ~hi:(Ir.param "N")
        (Ir.loop ~var:"j" ~lo:(Ir.cst 0) ~hi:(Ir.param "N")
           (Ir.S_body
              {
                Ir.refs =
                  [
                    Ir.direct "A"
                      [ ("i", Ir.C_param "N"); ("j", Ir.C_const 1) ]
                      ~write:false;
                    Ir.direct "x" [ ("j", Ir.C_const 1) ] ~write:false;
                    Ir.direct "y" [ ("i", Ir.C_const 1) ] ~write:true;
                  ];
                work_ns_per_iter = 45;
              }));
  }

let find_body (t : Analysis.t) =
  let rec go = function
    | Analysis.A_body b -> Some b
    | Analysis.A_loop (_, s) -> go s
    | Analysis.A_seq ss -> List.find_map go ss
    | Analysis.A_call _ -> None
  in
  match go t.Analysis.ap_main with
  | Some b -> b
  | None -> Alcotest.fail "no body found"

let ann_of (b : Analysis.body_ann) array =
  List.find (fun ra -> ra.Analysis.ra_ref.Ir.r_array = array) b.Analysis.ba_refs

(* ------------------------------------------------------------------ *)
(* Reuse analysis                                                      *)
(* ------------------------------------------------------------------ *)

let test_matvec_temporal_reuse () =
  let t = Analysis.analyze ~target (matvec_prog ()) in
  let b = find_body t in
  let a = ann_of b "A" and x = ann_of b "x" and y = ann_of b "y" in
  let temporal ra =
    match ra.Analysis.ra_dir with
    | Some d -> List.map fst d.Analysis.da_temporal
    | None -> []
  in
  Alcotest.(check (list string)) "A has no temporal reuse" [] (temporal a);
  Alcotest.(check (list string)) "x temporal across i" [ "i" ] (temporal x);
  Alcotest.(check (list string)) "y temporal across j" [ "j" ] (temporal y)

let test_matvec_priorities () =
  let t = Analysis.analyze ~target (matvec_prog ()) in
  let b = find_body t in
  let prio ra =
    match ra.Analysis.ra_dir with Some d -> d.Analysis.da_priority | None -> -1
  in
  (* Equation 2: depth(i)=0, depth(j)=1 *)
  check_int "A priority 0" 0 (prio (ann_of b "A"));
  check_int "x priority 2^0" 1 (prio (ann_of b "x"));
  check_int "y priority 2^1" 2 (prio (ann_of b "y"))

let test_priority_of_equation2 () =
  check_int "empty" 0 (Analysis.priority_of ~temporal:[]);
  check_int "depth 0" 1 (Analysis.priority_of ~temporal:[ ("i", 0) ]);
  check_int "depths 0+2" 5 (Analysis.priority_of ~temporal:[ ("i", 0); ("k", 2) ])

let prop_priority_monotone =
  QCheck.Test.make ~name:"equation 2: adding a loop never lowers priority"
    ~count:200
    QCheck.(list (int_bound 6))
    (fun depths ->
      let temporal = List.mapi (fun i d -> (Printf.sprintf "v%d" i, d)) depths in
      let p = Analysis.priority_of ~temporal in
      let p' = Analysis.priority_of ~temporal:(("extra", 3) :: temporal) in
      p' > p || (p' = p + 8 && false) || p' = p + 8)

let test_spatial_reuse () =
  let t = Analysis.analyze ~target (matvec_prog ()) in
  let b = find_body t in
  let spatial ra =
    match ra.Analysis.ra_dir with Some d -> d.Analysis.da_spatial | None -> []
  in
  Alcotest.(check (list string)) "A spatial along j" [ "j" ] (spatial (ann_of b "A"));
  Alcotest.(check (list string)) "x spatial along j" [ "j" ] (spatial (ann_of b "x"))

(* ------------------------------------------------------------------ *)
(* Locality (retained) analysis                                        *)
(* ------------------------------------------------------------------ *)

let test_vector_retained_with_known_bounds () =
  (* With known bounds, x's reuse across i provably fits in memory. *)
  let t = Analysis.analyze ~target (matvec_prog ~n:7000 ~known:true ()) in
  let b = find_body t in
  let retained ra =
    match ra.Analysis.ra_dir with
    | Some d -> d.Analysis.da_retained
    | None -> false
  in
  check_bool "x retained" true (retained (ann_of b "x"));
  check_bool "A not retained" false (retained (ann_of b "A"))

let test_unknown_bounds_never_retained () =
  (* Section 2.4: unknown bounds => assume only the smallest working set
     fits; nothing is provably retained. *)
  let t = Analysis.analyze ~target (matvec_prog ~known:false ()) in
  let b = find_body t in
  List.iter
    (fun ra ->
      match ra.Analysis.ra_dir with
      | Some d -> check_bool "not retained" false d.Analysis.da_retained
      | None -> ())
    b.Analysis.ba_refs

(* ------------------------------------------------------------------ *)
(* Group locality (the Figure 3 stencil)                               *)
(* ------------------------------------------------------------------ *)

let stencil_prog () =
  let at oi oj w =
    {
      Ir.r_array = "a";
      r_access =
        Ir.Direct
          {
            Ir.sc = oj;
            sp = (if oi = 0 then [] else [ ("N", oi) ]);
            st = [ ("i", Ir.C_param "N"); ("j", Ir.C_const 1) ];
          };
      r_write = w;
    }
  in
  {
    Ir.prog_name = "stencil";
    arrays = [ Ir.array_decl "a" ~size:(Ir.param "NN") ];
    assumptions = [ ("N", None); ("NN", None) ];
    procs = [];
    main =
      Ir.loop ~var:"i" ~lo:(Ir.cst 1) ~hi:(Ir.add_const (Ir.param "N") (-1))
        (Ir.loop ~var:"j" ~lo:(Ir.cst 1) ~hi:(Ir.add_const (Ir.param "N") (-1))
           (Ir.S_body
              {
                Ir.refs =
                  [
                    at 0 0 true;
                    at 1 (-1) false;
                    at 1 0 false;
                    at 1 1 false;
                    at 0 (-1) false;
                    at 0 1 false;
                    at (-1) (-1) false;
                    at (-1) 0 false;
                    at (-1) 1 false;
                  ];
                work_ns_per_iter = 100;
              }));
  }

let test_stencil_grouping () =
  let t = Analysis.analyze ~target (stencil_prog ()) in
  let b = find_body t in
  let groups =
    List.sort_uniq compare (List.map (fun ra -> ra.Analysis.ra_group) b.Analysis.ba_refs)
  in
  check_int "all nine references in one group" 1 (List.length groups);
  (* Leader = a[i+1][j+1] (index 3 in the list), trailer = a[i-1][j-1]
     (index 6): the first and last references to touch any datum. *)
  let leader = List.find (fun ra -> ra.Analysis.ra_is_leader) b.Analysis.ba_refs in
  let trailer = List.find (fun ra -> ra.Analysis.ra_is_trailer) b.Analysis.ba_refs in
  check_int "leader is a[i+1][j+1]" 3 leader.Analysis.ra_index;
  check_int "trailer is a[i-1][j-1]" 6 trailer.Analysis.ra_index

let test_different_arrays_never_group () =
  let t = Analysis.analyze ~target (matvec_prog ()) in
  let b = find_body t in
  let a = ann_of b "A" and x = ann_of b "x" in
  check_bool "distinct groups" true (a.Analysis.ra_group <> x.Analysis.ra_group)

(* ------------------------------------------------------------------ *)
(* False temporal reuse via opaque strides (FFTPDE)                    *)
(* ------------------------------------------------------------------ *)

let opaque_prog () =
  {
    Ir.prog_name = "opaque";
    arrays = [ Ir.array_decl "a" ~size:(Ir.param "M") ];
    assumptions = [ ("M", Some 4_000_000); ("S", None) ];
    procs = [];
    main =
      Ir.loop ~var:"k" ~lo:(Ir.cst 0) ~hi:(Ir.cst 1000)
        (Ir.loop ~var:"j" ~lo:(Ir.cst 0) ~hi:(Ir.cst 4096)
           (Ir.S_body
              {
                Ir.refs =
                  [
                    Ir.direct "a"
                      [ ("k", Ir.C_opaque "S"); ("j", Ir.C_const 1) ]
                      ~write:false;
                  ];
                work_ns_per_iter = 50;
              }));
  }

let test_opaque_creates_false_temporal () =
  let t = Analysis.analyze ~target (opaque_prog ()) in
  let b = find_body t in
  let ra = List.hd b.Analysis.ba_refs in
  (match ra.Analysis.ra_dir with
  | Some d ->
      Alcotest.(check (list string))
        "apparent temporal reuse along k" [ "k" ]
        (List.map fst d.Analysis.da_temporal);
      check_bool "priority > 0 despite no real reuse" true (d.Analysis.da_priority > 0)
  | None -> Alcotest.fail "expected direct annotation");
  check_bool "false-temporal counted" true
    (t.Analysis.ap_stats.Analysis.st_false_temporal > 0)

(* ------------------------------------------------------------------ *)
(* Code generation                                                     *)
(* ------------------------------------------------------------------ *)

let rec count_pir f = function
  | Pir.P_seq ss -> List.fold_left (fun acc s -> acc + count_pir f s) 0 ss
  | Pir.P_loop { body; _ } as s -> (if f s then 1 else 0) + count_pir f body
  | s -> if f s then 1 else 0

let is_prefetch = function Pir.P_prefetch _ -> true | _ -> false
let is_release = function Pir.P_release _ -> true | _ -> false
let is_touch = function Pir.P_touch _ -> true | _ -> false

let test_variants_differ () =
  let prog = matvec_prog () in
  let o = Compile.compile ~target ~variant:Pir.V_original prog in
  let p = Compile.compile ~target ~variant:Pir.V_prefetch prog in
  let r = Compile.compile ~target ~variant:Pir.V_release prog in
  check_int "O: no prefetches" 0 (count_pir is_prefetch o.Pir.px_main);
  check_int "O: no releases" 0 (count_pir is_release o.Pir.px_main);
  check_bool "P: prefetches present" true (count_pir is_prefetch p.Pir.px_main > 0);
  check_int "P: no releases" 0 (count_pir is_release p.Pir.px_main);
  check_bool "R: both" true
    (count_pir is_prefetch r.Pir.px_main > 0
    && count_pir is_release r.Pir.px_main > 0);
  check_int "touches identical across variants"
    (count_pir is_touch o.Pir.px_main)
    (count_pir is_touch r.Pir.px_main)

let test_indirect_never_released () =
  let prog =
    {
      Ir.prog_name = "ind";
      arrays =
        [
          Ir.array_decl "keys" ~size:(Ir.param "K");
          Ir.array_decl "buckets" ~size:(Ir.param "B");
        ];
      assumptions = [ ("K", None); ("B", None) ];
      procs = [];
      main =
        Ir.loop ~known:false ~var:"i" ~lo:(Ir.cst 0) ~hi:(Ir.param "K")
          (Ir.S_body
             {
               Ir.refs =
                 [
                   Ir.direct "keys" [ ("i", Ir.C_const 1) ] ~write:false;
                   Ir.indirect "buckets" ~via:"keys" ~write:true;
                 ];
               work_ns_per_iter = 10;
             });
    }
  in
  let r = Compile.compile ~target ~variant:Pir.V_release prog in
  let releases_buckets = function
    | Pir.P_release { dir; _ } -> dir.Pir.d_array = "buckets"
    | _ -> false
  in
  check_int "no release of the randomly-accessed array" 0
    (count_pir releases_buckets r.Pir.px_main);
  let releases_keys = function
    | Pir.P_release { dir; _ } -> dir.Pir.d_array = "keys"
    | _ -> false
  in
  check_bool "sequential array released" true
    (count_pir releases_keys r.Pir.px_main > 0);
  let indirect_prefetching = function
    | Pir.P_indirect { prefetch; _ } -> prefetch
    | _ -> false
  in
  check_bool "indirect refs are prefetched" true
    (count_pir indirect_prefetching r.Pir.px_main > 0)

let test_conservative_suppresses_retained () =
  let prog = matvec_prog ~known:true () in
  let aggressive = Compile.compile ~target ~variant:Pir.V_release prog in
  let conservative =
    Compile.compile ~target ~conservative:true ~variant:Pir.V_release prog
  in
  let releases_x = function
    | Pir.P_release { dir; _ } -> dir.Pir.d_array = "x"
    | _ -> false
  in
  check_bool "aggressive releases the vector" true
    (count_pir releases_x aggressive.Pir.px_main > 0);
  check_int "conservative retains the vector" 0
    (count_pir releases_x conservative.Pir.px_main)

let test_prefetch_distance () =
  (* ceil(latency / chunk time) clamped to [1, 64] *)
  check_int "long chunks: distance 1" 1
    (Codegen.prefetch_distance_chunks ~target ~chunk_ns:20_000_000);
  check_int "clamped at 64" 64
    (Codegen.prefetch_distance_chunks ~target ~chunk_ns:1);
  check_int "12ms / 100us = 121 -> clamp" 64
    (Codegen.prefetch_distance_chunks ~target ~chunk_ns:100_000);
  check_int "12ms / 1ms = 12" 12
    (Codegen.prefetch_distance_chunks ~target ~chunk_ns:1_000_000)

let test_release_priorities_in_code () =
  let r = Compile.compile ~target ~variant:Pir.V_release (matvec_prog ()) in
  let priorities = ref [] in
  let rec walk = function
    | Pir.P_seq ss -> List.iter walk ss
    | Pir.P_loop { body; _ } -> walk body
    | Pir.P_release { dir; priority } ->
        priorities := (dir.Pir.d_array, priority) :: !priorities
    | _ -> ()
  in
  walk r.Pir.px_main;
  check_bool "A released at priority 0" true (List.mem ("A", 0) !priorities);
  check_bool "x released at priority 1" true (List.mem ("x", 1) !priorities)

let test_tags_unique () =
  let r = Compile.compile ~target ~variant:Pir.V_release (stencil_prog ()) in
  let tags = ref [] in
  let rec walk = function
    | Pir.P_seq ss -> List.iter walk ss
    | Pir.P_loop { body; _ } -> walk body
    | Pir.P_prefetch d -> tags := d.Pir.d_tag :: !tags
    | Pir.P_release { dir; _ } -> tags := dir.Pir.d_tag :: !tags
    | _ -> ()
  in
  walk r.Pir.px_main;
  check_int "all tags distinct"
    (List.length !tags)
    (List.length (List.sort_uniq compare !tags))

(* ------------------------------------------------------------------ *)
(* Workload programs all validate and compile                          *)
(* ------------------------------------------------------------------ *)

let test_all_workloads_compile () =
  List.iter
    (fun (w : Memhog_workloads.Workload.t) ->
      let prog, params =
        w.Memhog_workloads.Workload.w_make ~mem_bytes:(75 * 1024 * 1024)
          ~page_bytes:16384
      in
      (match Ir.validate prog with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s fails validation: %s" w.Memhog_workloads.Workload.w_name e);
      List.iter
        (fun v ->
          let compiled = Compile.compile ~target ~variant:v prog in
          check_bool "main generated" true (compiled.Pir.px_main <> Pir.P_seq []))
        Compile.all_variants;
      (* all declared parameters have runtime values *)
      let env = Ir.env_of_list params in
      List.iter
        (fun (a : Ir.array_decl) ->
          check_bool "array size evaluable" true (Ir.eval_bound env a.Ir.a_size_elems > 0))
        prog.Ir.arrays)
    Memhog_workloads.Workload.all

let prop_compile_deterministic =
  QCheck.Test.make ~name:"compilation is deterministic" ~count:20
    QCheck.(int_range 1000 8000)
    (fun n ->
      let p1 = Compile.compile ~target ~variant:Pir.V_release (matvec_prog ~n ()) in
      let p2 = Compile.compile ~target ~variant:Pir.V_release (matvec_prog ~n ()) in
      let sig_of p =
        ( count_pir is_prefetch p.Pir.px_main,
          count_pir is_release p.Pir.px_main,
          count_pir is_touch p.Pir.px_main,
          p.Pir.px_stats.Pir.gs_prefetch_sites,
          p.Pir.px_stats.Pir.gs_release_sites )
      in
      sig_of p1 = sig_of p2)

let () =
  Alcotest.run "memhog_compiler"
    [
      ( "ir",
        [
          Alcotest.test_case "bound arithmetic" `Quick test_bound_arithmetic;
          Alcotest.test_case "subscript eval" `Quick test_subscript_eval;
          Alcotest.test_case "opaque coefficients" `Quick
            test_opaque_eval_uses_runtime_value;
          Alcotest.test_case "validation" `Quick test_validate_catches_errors;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "matvec temporal" `Quick test_matvec_temporal_reuse;
          Alcotest.test_case "matvec priorities" `Quick test_matvec_priorities;
          Alcotest.test_case "equation 2" `Quick test_priority_of_equation2;
          Alcotest.test_case "spatial" `Quick test_spatial_reuse;
        ] );
      ( "locality",
        [
          Alcotest.test_case "vector retained (known bounds)" `Quick
            test_vector_retained_with_known_bounds;
          Alcotest.test_case "unknown bounds never retained" `Quick
            test_unknown_bounds_never_retained;
        ] );
      ( "groups",
        [
          Alcotest.test_case "stencil grouping" `Quick test_stencil_grouping;
          Alcotest.test_case "arrays never group" `Quick
            test_different_arrays_never_group;
        ] );
      ( "false-temporal",
        [
          Alcotest.test_case "opaque stride" `Quick test_opaque_creates_false_temporal;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "variants differ" `Quick test_variants_differ;
          Alcotest.test_case "indirect never released" `Quick
            test_indirect_never_released;
          Alcotest.test_case "conservative suppresses retained" `Quick
            test_conservative_suppresses_retained;
          Alcotest.test_case "prefetch distance" `Quick test_prefetch_distance;
          Alcotest.test_case "release priorities in code" `Quick
            test_release_priorities_in_code;
          Alcotest.test_case "tags unique" `Quick test_tags_unique;
        ] );
      ( "workloads",
        [ Alcotest.test_case "all compile" `Quick test_all_workloads_compile ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_priority_monotone; prop_compile_deterministic; prop_compiled_matches_ir;
          ] );
    ]
