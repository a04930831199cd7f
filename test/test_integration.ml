(* End-to-end integration tests on the quick (1/8-scale) machine: the
   paper's qualitative claims must hold as invariants of the system. *)

open Memhog_sim
module E = Memhog_core.Experiment
module Machine = Memhog_core.Machine
module VS = Memhog_vm.Vm_stats
module Workload = Memhog_workloads.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine = Machine.quick

let run ?interactive_sleep ?iterations ~workload variant =
  E.run
    (E.setup ~machine ?interactive_sleep ?iterations
       ~workload:(Workload.find workload) ~variant ())

(* Cache: MATVEC O/P/R/B dedicated-machine runs are shared across tests. *)
let matvec =
  lazy
    (List.map (fun v -> (v, run ~workload:"MATVEC" ~iterations:2 v)) E.all_variants)

let get v = List.assoc v (Lazy.force matvec)

let test_invariants_hold () =
  List.iter
    (fun (v, r) ->
      check_bool
        (Printf.sprintf "invariants after %s" (E.variant_name v))
        true r.E.r_invariants_ok)
    (Lazy.force matvec)

let test_prefetching_reduces_io_stall () =
  let o = get E.O and p = get E.P in
  let io r = r.E.r_breakdown.E.b_io_stall in
  check_bool "P hides much of the I/O stall" true
    (float_of_int (io p) < 0.7 *. float_of_int (io o));
  check_bool "P faster overall" true (p.E.r_elapsed < o.E.r_elapsed)

let test_releasing_beats_prefetch_alone () =
  (* The headline result: R improves on P (sections 4.3, 13-50%). *)
  let p = get E.P and r = get E.R in
  check_bool "R faster than P" true (r.E.r_elapsed < p.E.r_elapsed)

let test_releasing_idles_the_daemon () =
  let o = get E.O and r = get E.R in
  check_bool "daemon busy in O" true (o.E.r_global.VS.daemon_pages_stolen > 0);
  check_bool "daemon steals vastly reduced (Table 3)" true
    (r.E.r_global.VS.daemon_pages_stolen * 3 < o.E.r_global.VS.daemon_pages_stolen);
  check_bool "activations reduced" true
    (r.E.r_global.VS.daemon_activations <= o.E.r_global.VS.daemon_activations)

let test_releases_replace_steals () =
  let r = get E.R in
  check_bool "most frees are explicit releases (Figure 9)" true
    (r.E.r_app_stats.VS.freed_by_releaser > r.E.r_app_stats.VS.freed_by_daemon)

let test_io_volume_unchanged () =
  (* Releasing must not change how much data is read from swap (only who
     decides what to evict). *)
  let o = get E.O and r = get E.R in
  let within_pct a b pct =
    abs (a - b) * 100 <= pct * max a b
  in
  check_bool "swap reads comparable" true (within_pct o.E.r_swap_reads r.E.r_swap_reads 10)

let test_determinism () =
  let r1 = run ~workload:"EMBAR" ~iterations:1 E.R in
  let r2 = run ~workload:"EMBAR" ~iterations:1 E.R in
  check_int "identical elapsed" r1.E.r_elapsed r2.E.r_elapsed;
  check_int "identical faults" r1.E.r_app_stats.VS.hard_faults
    r2.E.r_app_stats.VS.hard_faults;
  check_int "identical steals" r1.E.r_global.VS.daemon_pages_stolen
    r2.E.r_global.VS.daemon_pages_stolen

(* ------------------------------------------------------------------ *)
(* Interactive co-runs (Figures 1 / 10)                                *)
(* ------------------------------------------------------------------ *)

let sleep = Time_ns.sec 2

let co_run v = run ~workload:"MATVEC" ~interactive_sleep:sleep v

let interactive_response (r : E.result) =
  match r.E.r_interactive with
  | Some i -> Option.value i.E.is_avg_response ~default:max_int
  | None -> Alcotest.fail "no interactive summary"

let test_releasing_restores_interactive_response () =
  let p = co_run E.P in
  let r = co_run E.R in
  let resp_p = interactive_response p and resp_r = interactive_response r in
  let alone =
    match r.E.r_interactive with
    | Some i -> i.E.is_alone_response
    | None -> assert false
  in
  check_bool "P ruins the interactive task (Figure 1)" true (resp_p > 4 * alone);
  check_bool "R restores it (Figure 10)" true (resp_r < 2 * alone);
  check_bool "R response well below P" true (resp_r * 2 < resp_p)

let test_interactive_hard_faults_drop_with_releasing () =
  let p = co_run E.P in
  let r = co_run E.R in
  let faults (res : E.result) =
    match res.E.r_interactive with
    | Some i -> Option.value i.E.is_avg_hard_faults ~default:nan
    | None -> nan
  in
  check_bool "P causes re-paging (Figure 10c)" true (faults p > 1.0);
  check_bool "R nearly eliminates it" true (faults r < faults p /. 2.0)

let test_fftpde_buffering_is_the_exception () =
  (* The paper's one negative result: FFTPDE's buffered releases carry
     false temporal reuse, so B retains pages with no future use, the
     daemon reactivates, and the interactive task suffers relative to R. *)
  let run v = run ~workload:"FFTPDE" ~interactive_sleep:sleep v in
  let r = run E.R and b = run E.B in
  check_bool "B reactivates the daemon" true
    (b.E.r_global.VS.daemon_pages_stolen > 3 * r.E.r_global.VS.daemon_pages_stolen);
  check_bool "B hurts the interactive task" true
    (interactive_response b > 5 * interactive_response r)

let test_buk_bucket_array_protected () =
  (* BUK: the compiler releases the sequential arrays but never the
     randomly-accessed one; with releasing the daemon goes idle and the
     bucket array stays resident (few hard faults after warm-up). *)
  let r = run ~workload:"BUK" ~iterations:2 E.R in
  check_int "daemon idle" 0 r.E.r_global.VS.daemon_pages_stolen;
  check_bool "sequential arrays released" true
    (r.E.r_app_stats.VS.freed_by_releaser > 1000);
  (* random touches (indirect) vastly outnumber hard faults: the array is
     being served from memory *)
  check_bool "bucket array resident" true (r.E.r_app_stats.VS.hard_faults < 200)

let test_two_hogs_coexist_with_releasing () =
  let engine = Engine.create ~max_time:(Time_ns.sec 7200) () in
  let os =
    Memhog_vm.Os.create ~swap_config:machine.Machine.m_swap
      ~config:machine.Machine.m_config ~engine ()
  in
  let build name =
    let wl = Workload.find name in
    let prog_ir, params =
      wl.Workload.w_make
        ~mem_bytes:(Machine.mem_bytes machine)
        ~page_bytes:machine.Machine.m_config.Memhog_vm.Config.page_bytes
    in
    let prog =
      Memhog_compiler.Compile.compile
        ~target:(Machine.compiler_target machine)
        ~variant:Memhog_compiler.Pir.V_release prog_ir
    in
    Memhog_exec.App.create ~os ~params prog
  in
  let a = build "MATVEC" and b = build "EMBAR" in
  let finished = ref 0 in
  List.iter
    (fun app ->
      ignore
        (Engine.spawn engine ~name:"hog" (fun () ->
             Memhog_exec.App.run app ~iterations:1;
             incr finished;
             if !finished = 2 then Engine.stop ())))
    [ a; b ];
  Engine.run engine;
  check_int "both completed" 2 !finished;
  (* a small warm-up transient is tolerated; compare the ~16k steals the
     same pairing produces without releasing *)
  check_bool "daemon nearly idle with two hogs" true
    ((Memhog_vm.Os.global_stats os).VS.daemon_pages_stolen < 1000);
  check_bool "invariants" true
    (List.for_all snd (Memhog_vm.Os.check_invariants os))

(* ------------------------------------------------------------------ *)
(* Ablation sanity                                                     *)
(* ------------------------------------------------------------------ *)

let test_hw_ref_bits_remove_soft_faults () =
  let hw =
    {
      machine with
      Machine.m_config =
        { machine.Machine.m_config with Memhog_vm.Config.hw_ref_bits = true };
    }
  in
  let r =
    E.run
      (E.setup ~machine:hw ~workload:(Workload.find "MATVEC") ~iterations:2
         ~variant:E.P ())
  in
  check_int "no daemon-induced soft faults with hardware bits" 0
    r.E.r_app_stats.VS.soft_faults_daemon

let test_no_rescue_costs_more_io () =
  let no_rescue =
    {
      machine with
      Machine.m_config =
        {
          machine.Machine.m_config with
          Memhog_vm.Config.rescue_from_free_list = false;
        };
    }
  in
  let with_rescue = run ~workload:"MGRID" ~iterations:1 E.R in
  let without =
    E.run
      (E.setup ~machine:no_rescue ~workload:(Workload.find "MGRID") ~iterations:1
         ~variant:E.R ())
  in
  check_int "no rescues when disabled" 0
    (without.E.r_app_stats.VS.rescued_daemon
    + without.E.r_app_stats.VS.rescued_releaser);
  check_bool "rescues happen when enabled" true
    (with_rescue.E.r_app_stats.VS.rescued_daemon
     + with_rescue.E.r_app_stats.VS.rescued_releaser
    > 0)

let () =
  Alcotest.run "memhog_integration"
    [
      ( "dedicated-machine",
        [
          Alcotest.test_case "invariants" `Quick test_invariants_hold;
          Alcotest.test_case "P reduces io stall" `Quick
            test_prefetching_reduces_io_stall;
          Alcotest.test_case "R beats P" `Quick test_releasing_beats_prefetch_alone;
          Alcotest.test_case "R idles the daemon" `Quick test_releasing_idles_the_daemon;
          Alcotest.test_case "releases replace steals" `Quick
            test_releases_replace_steals;
          Alcotest.test_case "io volume unchanged" `Quick test_io_volume_unchanged;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "interactive",
        [
          Alcotest.test_case "R restores response" `Quick
            test_releasing_restores_interactive_response;
          Alcotest.test_case "hard faults drop" `Quick
            test_interactive_hard_faults_drop_with_releasing;
          Alcotest.test_case "FFTPDE-B exception" `Quick
            test_fftpde_buffering_is_the_exception;
          Alcotest.test_case "BUK bucket protection" `Quick
            test_buk_bucket_array_protected;
          Alcotest.test_case "two hogs coexist" `Quick
            test_two_hogs_coexist_with_releasing;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "hw ref bits" `Quick test_hw_ref_bits_remove_soft_faults;
          Alcotest.test_case "rescue value" `Quick test_no_rescue_costs_more_io;
        ] );
    ]
