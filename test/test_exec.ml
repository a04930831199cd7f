(* Tests for the execution layer: the PIR interpreter and the interactive
   task. *)

open Memhog_sim
module Vm = Memhog_vm
module Os = Vm.Os
module As = Vm.Address_space
module Ir = Memhog_compiler.Ir
module Pir = Memhog_compiler.Pir
module Compile = Memhog_compiler.Compile
module App = Memhog_exec.App
module Interactive = Memhog_exec.Interactive

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let small_config =
  { Vm.Config.default with Vm.Config.total_frames = 128; min_freemem = 4; desfree = 16 }

let target =
  {
    Memhog_compiler.Analysis.memory_pages = 128;
    page_bytes = 16384;
    fault_latency_ns = 12_000_000;
  }

(* Run a compiled program to completion on a small machine. *)
let run_app ?(runtime_policy = Memhog_runtime.Runtime.Aggressive) ~params prog =
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let os = Os.create ~config:small_config ~engine () in
  let app = App.create ~runtime_policy ~os ~params prog in
  ignore
    (Engine.spawn engine ~name:"main" (fun () ->
         Fun.protect ~finally:Engine.stop (fun () -> App.run app ~iterations:1)));
  Engine.run engine;
  (match Engine.crashes engine with
  | [] -> ()
  | (name, e) :: _ ->
      if name = "main" then raise e
      else Alcotest.failf "%s crashed: %s" name (Printexc.to_string e));
  (app, os)

(* A simple sequential-sweep program over [pages] pages. *)
let sweep_prog ~pages =
  let elems = pages * 2048 in
  {
    Ir.prog_name = "sweep";
    arrays = [ Ir.array_decl "a" ~size:(Ir.cst elems) ];
    assumptions = [];
    procs = [];
    main =
      Ir.loop ~var:"i" ~lo:(Ir.cst 0) ~hi:(Ir.cst elems)
        (Ir.S_body
           {
             Ir.refs = [ Ir.direct "a" [ ("i", Ir.C_const 1) ] ~write:false ];
             work_ns_per_iter = 20;
           });
  }

let test_sequential_sweep_touches_each_page_once () =
  let prog = Compile.compile ~target ~variant:Pir.V_original (sweep_prog ~pages:32) in
  let app, _ = run_app ~params:[] prog in
  (* page-granular interpretation: one touch per page *)
  check_int "touches = pages" 32 (App.touched_pages app)

let test_sweep_faults_every_page () =
  let prog = Compile.compile ~target ~variant:Pir.V_original (sweep_prog ~pages:32) in
  let app, _ = run_app ~params:[] prog in
  check_int "32 hard faults" 32
    (App.asp app).As.stats.Vm.Vm_stats.hard_faults

let test_strided_program_touches_every_stride () =
  (* stride of exactly 2 pages: touch half the pages *)
  let elems = 64 * 2048 in
  let prog_ir =
    {
      Ir.prog_name = "strided";
      arrays = [ Ir.array_decl "a" ~size:(Ir.cst elems) ];
      assumptions = [];
      procs = [];
      main =
        Ir.loop ~var:"i" ~lo:(Ir.cst 0) ~hi:(Ir.cst 32)
          (Ir.S_body
             {
               Ir.refs = [ Ir.direct "a" [ ("i", Ir.C_const 4096) ] ~write:false ];
               work_ns_per_iter = 20;
             });
    }
  in
  let prog = Compile.compile ~target ~variant:Pir.V_original prog_ir in
  let app, _ = run_app ~params:[] prog in
  check_int "one fault per strided page" 32
    (App.asp app).As.stats.Vm.Vm_stats.hard_faults

let test_prefetch_variant_hides_faults () =
  let o = Compile.compile ~target ~variant:Pir.V_original (sweep_prog ~pages:64) in
  let p = Compile.compile ~target ~variant:Pir.V_prefetch (sweep_prog ~pages:64) in
  let app_o, _ = run_app ~params:[] o in
  let app_p, _ = run_app ~params:[] p in
  let hard a = (App.asp a).As.stats.Vm.Vm_stats.hard_faults in
  let valid a = (App.asp a).As.stats.Vm.Vm_stats.validation_faults in
  check_int "O: all hard" 64 (hard app_o);
  check_bool "P: most pages prefetched" true (valid app_p > 32);
  check_bool "P: few hard faults" true (hard app_p < 32)

let test_release_variant_returns_memory () =
  let r = Compile.compile ~target ~variant:Pir.V_release (sweep_prog ~pages:256) in
  let app, os = run_app ~params:[] r in
  (* data (256 pages) exceeds memory (128 frames): releases must have kept
     the daemon asleep *)
  check_int "no daemon steals" 0
    (Os.global_stats os).Vm.Vm_stats.daemon_pages_stolen;
  check_bool "releases performed" true
    ((App.asp app).As.stats.Vm.Vm_stats.freed_by_releaser > 0)

(* Two calls of one procedure, each binding the loop range it sweeps. *)
let calls_prog =
    {
      Ir.prog_name = "calls";
      arrays = [ Ir.array_decl "a" ~size:(Ir.cst (64 * 2048)) ];
      assumptions = [ ("LO", None); ("HI", None) ];
      procs =
        [
          {
            Ir.p_name = "range";
            p_body =
              Ir.loop ~var:"i" ~lo:(Ir.param "LO") ~hi:(Ir.param "HI")
                (Ir.S_body
                   {
                     Ir.refs = [ Ir.direct "a" [ ("i", Ir.C_const 1) ] ~write:false ];
                     work_ns_per_iter = 10;
                   });
          };
        ];
      main =
        Ir.S_seq
          [
            (* touch pages 0..15, then pages 32..47 *)
            Ir.S_call ("range", [ ("LO", Ir.cst 0); ("HI", Ir.cst (16 * 2048)) ]);
            Ir.S_call
              ( "range",
                [ ("LO", Ir.cst (32 * 2048)); ("HI", Ir.cst (48 * 2048)) ] );
          ];
    }

let test_proc_call_binds_params () =
  let prog = Compile.compile ~target ~variant:Pir.V_original calls_prog in
  let app, _ = run_app ~params:[ ("LO", 0); ("HI", 0) ] prog in
  check_int "two disjoint 16-page ranges" 32
    (App.asp app).As.stats.Vm.Vm_stats.hard_faults

(* A name that nothing binds would read its slot's initial 0: a loop bound
   over an omitted parameter would then touch nothing and the run would
   look fine.  [App.create] must refuse it, naming every such name; names
   bound by a loop or a call need no parameter. *)
let test_unbound_names_rejected () =
  let prog_ir =
    {
      Ir.prog_name = "unbound";
      arrays = [ Ir.array_decl "a" ~size:(Ir.cst (16 * 2048)) ];
      assumptions = [ ("ROWS", None); ("SHIFT", None) ];
      procs = [];
      main =
        Ir.loop ~var:"i" ~lo:(Ir.cst 0) ~hi:(Ir.param "ROWS")
          (Ir.S_body
             {
               Ir.refs =
                 [
                   Ir.direct "a" ~param_off:[ ("SHIFT", 1) ] [ ("i", Ir.C_const 1) ]
                     ~write:false;
                 ];
               work_ns_per_iter = 10;
             });
    }
  in
  let os () =
    Os.create ~config:small_config ~engine:(Engine.create ()) ()
  in
  List.iter
    (fun variant ->
      let prog = Compile.compile ~target ~variant prog_ir in
      (match App.create ~os:(os ()) ~params:[ ("ROWS", 8) ] prog with
      | _ -> Alcotest.fail "created with SHIFT unbound"
      | exception Invalid_argument msg ->
          check_bool ("names SHIFT: " ^ msg) true (contains msg "SHIFT");
          check_bool ("does not name ROWS: " ^ msg) false (contains msg "ROWS"));
      match App.create ~os:(os ()) ~params:[] prog with
      | _ -> Alcotest.fail "created with ROWS and SHIFT unbound"
      | exception Invalid_argument msg ->
          check_bool ("names ROWS and SHIFT: " ^ msg) true
            (contains msg "ROWS" && contains msg "SHIFT"))
    Compile.all_variants;
  let calls = Compile.compile ~target ~variant:Pir.V_release calls_prog in
  let app, _ = run_app ~params:[] calls in
  check_int "call-bound names need no parameter" 32 (App.touched_pages app)

let indirect_prog ~every =
  {
    Ir.prog_name = "indirect";
    arrays =
      [
        Ir.array_decl "keys" ~size:(Ir.cst (32 * 2048));
        Ir.array_decl "buckets" ~size:(Ir.cst (16 * 2048));
      ];
    assumptions = [];
    procs = [];
    main =
      Ir.loop ~var:"i" ~lo:(Ir.cst 0) ~hi:(Ir.cst (32 * 2048))
        (Ir.S_body
           {
             Ir.refs =
               [
                 Ir.direct "keys" [ ("i", Ir.C_const 1) ] ~write:false;
                 Ir.indirect ~every "buckets" ~via:"keys" ~write:true;
               ];
             work_ns_per_iter = 20;
           });
  }

let test_indirect_streams_deterministic_across_variants () =
  let run variant =
    let prog = Compile.compile ~target ~variant (indirect_prog ~every:64) in
    let app, os = run_app ~params:[] prog in
    ignore app;
    Memhog_disk.Swap.page_reads (Os.swap os)
  in
  (* the indirect index sequence is drawn from per-site streams seeded
     independently of the variant: two O runs are identical *)
  check_int "O deterministic" (run Pir.V_original) (run Pir.V_original)

let test_indirect_every_reduces_touches () =
  let touch_count every =
    let prog = Compile.compile ~target ~variant:Pir.V_original (indirect_prog ~every) in
    let app, _ = run_app ~params:[] prog in
    App.touched_pages app
  in
  let dense = touch_count 16 and sparse = touch_count 64 in
  check_bool "denser indirect access touches more" true (dense > sparse)

let test_release_covers_whole_array_including_epilogue () =
  (* 33 pages: not a multiple of the chunk size; the epilogue release must
     cover the final partial chunk.  Every page ends up explicitly freed. *)
  let r = Compile.compile ~target ~variant:Pir.V_release (sweep_prog ~pages:33) in
  let app, _ = run_app ~params:[] r in
  (* allow the releaser to finish *)
  check_int "every page released" 33
    (App.asp app).As.stats.Vm.Vm_stats.freed_by_releaser

let test_prologue_prefetches_first_pages () =
  (* With prefetching, even the very first pages should arrive via the
     prologue rather than demand faults (the pool still needs a moment, so
     allow the first page to fault). *)
  let p = Compile.compile ~target ~variant:Pir.V_prefetch (sweep_prog ~pages:48) in
  let app, _ = run_app ~params:[] p in
  check_bool "almost no demand faults" true
    ((App.asp app).As.stats.Vm.Vm_stats.hard_faults <= 4)

let test_odd_bounds_touch_exact_pages () =
  (* loop over a half-page tail: 10.5 pages of elements *)
  let elems = (10 * 2048) + 1024 in
  let prog_ir =
    {
      Ir.prog_name = "odd";
      arrays = [ Ir.array_decl "a" ~size:(Ir.cst (16 * 2048)) ];
      assumptions = [];
      procs = [];
      main =
        Ir.loop ~var:"i" ~lo:(Ir.cst 0) ~hi:(Ir.cst elems)
          (Ir.S_body
             {
               Ir.refs = [ Ir.direct "a" [ ("i", Ir.C_const 1) ] ~write:false ];
               work_ns_per_iter = 10;
             });
    }
  in
  let prog = Compile.compile ~target ~variant:Pir.V_original prog_ir in
  let app, _ = run_app ~params:[] prog in
  check_int "11 pages faulted (10.5 rounded up)" 11
    (App.asp app).As.stats.Vm.Vm_stats.hard_faults

let test_negative_offsets_clamped () =
  (* a group whose trailing reference starts below the array: the evaluator
     must clamp rather than crash or touch foreign pages *)
  let prog_ir =
    {
      Ir.prog_name = "clamp";
      arrays = [ Ir.array_decl "a" ~size:(Ir.cst (8 * 2048)) ];
      assumptions = [];
      procs = [];
      main =
        Ir.loop ~var:"i" ~lo:(Ir.cst 0) ~hi:(Ir.cst (8 * 2048))
          (Ir.S_body
             {
               Ir.refs =
                 [
                   Ir.direct "a" ~off:(-4096) [ ("i", Ir.C_const 1) ] ~write:false;
                   Ir.direct "a" ~off:4096 [ ("i", Ir.C_const 1) ] ~write:false;
                 ];
               work_ns_per_iter = 10;
             });
    }
  in
  let prog = Compile.compile ~target ~variant:Pir.V_original prog_ir in
  let app, _ = run_app ~params:[] prog in
  check_int "exactly the array's pages faulted" 8
    (App.asp app).As.stats.Vm.Vm_stats.hard_faults

(* ------------------------------------------------------------------ *)
(* Interactive task                                                    *)
(* ------------------------------------------------------------------ *)

(* The task with the machine to itself: after the cold sweep every sweep
   is pure compute, so its mean response is exactly [alone_response] — the
   "alone" baseline Figures 1, 10(a) and 10(b) read from a co-run's
   summary.  Run for as long as a co-run at that sleep runs, on a small
   machine and on the quick and paper machines, at each sleep the figures
   sweep. *)
let test_interactive_alone_response () =
  let module Machine = Memhog_core.Machine in
  let machine (m : Machine.t) =
    (m.Machine.m_name, m.Machine.m_config, Some m.Machine.m_swap)
  in
  List.iter
    (fun (name, config, swap_config) ->
      List.iter
        (fun sleep_s ->
          let what = Printf.sprintf "%s, sleep %g s" name sleep_s in
          let sleep = Time_ns.of_sec_f sleep_s in
          let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
          let os = Os.create ?swap_config ~config ~engine () in
          let task = Interactive.create ~os ~sleep () in
          ignore (Interactive.spawn task);
          ignore
            (Engine.spawn engine ~name:"stopper" (fun () ->
                 Engine.delay ~cat:Account.Sleep
                   (Memhog_core.Experiment.run_length sleep);
                 Engine.stop ()));
          Engine.run engine;
          Alcotest.(check (option int))
            (what ^ ": warm response = alone response")
            (Some (Interactive.alone_response task))
            (Interactive.avg_response task);
          Alcotest.(check (option (float 0.0)))
            (what ^ ": warm sweeps fault-free") (Some 0.0)
            (Interactive.avg_hard_faults task);
          (* the first sweep pays the demand paging *)
          match Interactive.sweeps task with
          | first :: _ ->
              check_int (what ^ ": cold sweep faults whole data set") 64
                first.Interactive.sw_hard_faults
          | [] -> Alcotest.fail (what ^ ": no sweeps"))
        [ 0.0; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 30.0 ])
    [
      ("small", small_config, None);
      machine Machine.quick;
      machine Machine.paper;
    ]

(* avg_response must round to nearest, not truncate: the mean of the
   sweep responses is a rational number of ns and truncation biases every
   derived slowdown ratio low.  Recompute the mean from the public sweep
   list and pin the rounding against it. *)
let test_interactive_avg_response_rounds_to_nearest () =
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let os = Os.create ~config:small_config ~engine () in
  let task = Interactive.create ~os ~sleep:(Time_ns.ms 100) () in
  ignore (Interactive.spawn task);
  let prog =
    Compile.compile ~target ~variant:Pir.V_original (sweep_prog ~pages:512)
  in
  let app = App.create ~os ~params:[] prog in
  ignore
    (Engine.spawn engine ~name:"hog" (fun () ->
         Fun.protect ~finally:Engine.stop (fun () ->
             for _ = 1 to 8 do
               App.exec_main app
             done)));
  Engine.run engine;
  let usable =
    List.filter
      (fun s -> s.Interactive.sw_index >= 1)
      (Interactive.sweeps task)
  in
  check_bool "warm sweeps exist" true (usable <> []);
  let mean =
    List.fold_left
      (fun acc s -> acc +. float_of_int s.Interactive.sw_response)
      0.0 usable
    /. float_of_int (List.length usable)
  in
  match Interactive.avg_response task with
  | Some avg ->
      check_int "round to nearest of the sweep mean"
        (int_of_float (Float.round mean))
        avg;
      check_bool "within half a ns of the true mean" true
        (Float.abs (float_of_int avg -. mean) <= 0.5)
  | None -> Alcotest.fail "no response measured"

let test_interactive_loses_pages_under_pressure () =
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let os = Os.create ~config:small_config ~engine () in
  (* long sleep: the task cannot defend its memory against a hog *)
  let task = Interactive.create ~os ~sleep:(Time_ns.sec 2) () in
  ignore (Interactive.spawn task);
  let prog = Compile.compile ~target ~variant:Pir.V_original (sweep_prog ~pages:512) in
  let app = App.create ~os ~params:[] prog in
  ignore
    (Engine.spawn engine ~name:"hog" (fun () ->
         Fun.protect ~finally:Engine.stop (fun () ->
             for _ = 1 to 8 do
               App.exec_main app
             done)));
  Engine.run engine;
  match Interactive.avg_hard_faults task with
  | Some f -> check_bool "re-faults under pressure" true (f > 1.0)
  | None -> Alcotest.fail "no sweeps completed"

(* ------------------------------------------------------------------ *)
(* Metamorphic property: variants preserve the reference stream        *)
(* ------------------------------------------------------------------ *)

(* Random 2-deep affine programs over one or two arrays. *)
let random_program_gen =
  QCheck.Gen.(
    let* outer = int_range 2 6 in
    let* inner_pages = int_range 2 12 in
    let* stride = oneofl [ 1; 2; 3; 512 ] in
    let* off = int_range 0 64 in
    let* second_array = bool in
    let* write = bool in
    let inner = inner_pages * 2048 in
    let refs =
      [
        Ir.direct "a" ~off
          [ ("i", Ir.C_const inner); ("j", Ir.C_const stride) ]
          ~write;
      ]
      @
      if second_array then
        [ Ir.direct "b" [ ("j", Ir.C_const 1) ] ~write:false ]
      else []
    in
    let arrays =
      [ Ir.array_decl "a" ~size:(Ir.cst ((outer + 1) * inner * stride + 65)) ]
      @ (if second_array then [ Ir.array_decl "b" ~size:(Ir.cst inner) ] else [])
    in
    return
      {
        Ir.prog_name = "random";
        arrays;
        assumptions = [];
        procs = [];
        main =
          Ir.loop ~var:"i" ~lo:(Ir.cst 0) ~hi:(Ir.cst outer)
            (Ir.loop ~var:"j" ~lo:(Ir.cst 0) ~hi:(Ir.cst inner)
               (Ir.S_body { Ir.refs; work_ns_per_iter = 15 }));
      })

let random_program_arb =
  QCheck.make ~print:(fun p -> Format.asprintf "%a" Ir.pp_program p)
    random_program_gen

let prop_variants_preserve_touches =
  QCheck.Test.make
    ~name:"O/P/R touch the same pages in the same multiplicity" ~count:25
    random_program_arb
    (fun prog_ir ->
      (match Ir.validate prog_ir with Ok _ -> () | Error e -> failwith e);
      let touches variant =
        let prog = Compile.compile ~target ~variant prog_ir in
        let app, os = run_app ~params:[] prog in
        ignore os;
        App.touched_pages app
      in
      let o = touches Pir.V_original in
      o = touches Pir.V_prefetch && o = touches Pir.V_release)

let prop_variants_invariants_hold =
  QCheck.Test.make ~name:"invariants survive every variant of random programs"
    ~count:15 random_program_arb
    (fun prog_ir ->
      List.for_all
        (fun variant ->
          let prog = Compile.compile ~target ~variant prog_ir in
          let _, os = run_app ~params:[] prog in
          List.for_all snd (Os.check_invariants os))
        Compile.all_variants)

let () =
  Alcotest.run "memhog_exec"
    [
      ( "interpreter",
        [
          Alcotest.test_case "sweep touches pages once" `Quick
            test_sequential_sweep_touches_each_page_once;
          Alcotest.test_case "sweep faults each page" `Quick test_sweep_faults_every_page;
          Alcotest.test_case "strided touches" `Quick
            test_strided_program_touches_every_stride;
          Alcotest.test_case "prefetch hides faults" `Quick
            test_prefetch_variant_hides_faults;
          Alcotest.test_case "release returns memory" `Quick
            test_release_variant_returns_memory;
          Alcotest.test_case "proc calls bind params" `Quick test_proc_call_binds_params;
          Alcotest.test_case "unbound names rejected" `Quick test_unbound_names_rejected;
          Alcotest.test_case "epilogue release coverage" `Quick
            test_release_covers_whole_array_including_epilogue;
          Alcotest.test_case "prologue prefetch" `Quick test_prologue_prefetches_first_pages;
          Alcotest.test_case "odd bounds" `Quick test_odd_bounds_touch_exact_pages;
          Alcotest.test_case "clamping" `Quick test_negative_offsets_clamped;
        ] );
      ( "indirect",
        [
          Alcotest.test_case "deterministic streams" `Quick
            test_indirect_streams_deterministic_across_variants;
          Alcotest.test_case "every scales touches" `Quick
            test_indirect_every_reduces_touches;
        ] );
      ( "interactive",
        [
          Alcotest.test_case "alone response" `Quick test_interactive_alone_response;
          Alcotest.test_case "avg response rounds to nearest" `Quick
            test_interactive_avg_response_rounds_to_nearest;
          Alcotest.test_case "pressure refaults" `Quick
            test_interactive_loses_pages_under_pressure;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_variants_preserve_touches; prop_variants_invariants_hold ] );
    ]
