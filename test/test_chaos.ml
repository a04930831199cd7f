(* Tests for the deterministic fault-injection layer: the spec DSL, draw
   determinism, the disk retry/backoff/timeout path, the sequentiality fix
   for faulted requests, and end-to-end chaos runs with OS-invariant and
   byte-determinism checks. *)

open Memhog_sim
module Disk = Memhog_disk.Disk
module E = Memhog_core.Experiment
module Machine = Memhog_core.Machine
module Metrics = Memhog_core.Metrics
module Mio = Memhog_core.Metrics_io
module Workload = Memhog_workloads.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_sim f =
  let e = Engine.create () in
  ignore (Engine.spawn e ~name:"t" f);
  Engine.run e;
  (match Engine.crashes e with
  | [] -> ()
  | (name, exn) :: _ ->
      Alcotest.failf "%s crashed: %s" name (Printexc.to_string exn));
  e

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_all_kinds () =
  let spec =
    "disk-fault@10s-20s:p=0.5,retries=3,backoff=1ms;disk-slow@1m-2m:factor=8;"
    ^ "releaser-stall@0s-500ms;daemon-stall@1s-2s;releaser-drop@0s-1s:p=0.25;"
    ^ "pressure@5s-6s:pages=128,hold=2s;net-partition@7s-8s:p=0.9;"
    ^ "net-brownout@9s-10s:factor=10,bandwidth=0.1;net-jitter@11s-12s:latency=2ms,p=0.5"
  in
  (match Chaos.parse spec with
  | Ok t -> check_bool "plan not empty" false (Chaos.is_none t)
  | Error e -> Alcotest.failf "spec rejected: %s" e);
  (* bare numbers are seconds *)
  (match Chaos.parse "disk-fault@10-20" with
  | Ok t ->
      check_bool "inside window" true (Chaos.disk_fault t ~now:(Time_ns.sec 15) <> None);
      check_bool "before window" true (Chaos.disk_fault t ~now:(Time_ns.sec 5) = None)
  | Error e -> Alcotest.failf "bare seconds rejected: %s" e);
  match Chaos.parse "" with
  | Ok t -> check_bool "empty spec is the empty plan" true (Chaos.is_none t)
  | Error e -> Alcotest.failf "empty spec rejected: %s" e

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Chaos.parse spec with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" spec
      | Error _ -> ())
    [
      "explode@0s-1s";            (* unknown kind *)
      "disk-fault";               (* no window *)
      "disk-fault@5s-2s";         (* stop before start *)
      "disk-fault@0q-1q";         (* bad unit *)
      "disk-fault@0s-1s:p=2";     (* probability out of range *)
      "disk-fault@0s-1s:wat=1";   (* unknown parameter *)
      "pressure@0s-1s:pages=-4";  (* negative page count *)
      (* net-* clauses with malformed bandwidth/latency arguments must
         fail the parse, not degrade silently to the defaults *)
      "net-partition@0s-1s:p=1.5";
      "net-brownout@0s-1s";                  (* neither factor nor bw *)
      "net-brownout@0s-1s:factor=0";
      "net-brownout@0s-1s:bandwidth=0";
      "net-brownout@0s-1s:bandwidth=1.5";    (* fraction in (0,1] *)
      "net-brownout@0s-1s:bandwidth=lots";
      "net-jitter@0s-1s";                    (* latency required *)
      "net-jitter@0s-1s:latency=0";
      "net-jitter@0s-1s:latency=-5us";
      "net-jitter@0s-1s:latency=soon";
      (* the clause grammar is the only format: no JSON plans *)
      {|[{"fault":"disk-fault","start":"1s","stop":"3s"}]|};
      {|{"seed":7,"rules":[]}|};
    ];
  Alcotest.check_raises "create raises on bad spec"
    (Invalid_argument "chaos spec: unknown fault kind \"explode\"")
    (fun () -> ignore (Chaos.create "explode@0s-1s"))

(* A fixed (seed, spec) pair must give the same injected schedule on every
   run; the seed= clause must be draw-for-draw equivalent to [~seed].  The
   per-rule streams are stateful, so every comparison builds its plans
   fresh. *)
let draws t =
  List.init 100 (fun i ->
      Chaos.disk_fault t ~now:(Time_ns.ms (1_000 + (i * 13))))

let test_draw_determinism () =
  let spec = "disk-fault@1s-3s:p=0.5,retries=3,backoff=250us" in
  let a = draws (Chaos.create ~seed:42 spec) in
  check_bool "same seed, same schedule" true
    (a = draws (Chaos.create ~seed:42 spec));
  check_bool "different seed, different schedule" false
    (a = draws (Chaos.create ~seed:43 spec));
  check_bool "some requests fault" true (List.exists Option.is_some a);
  check_bool "some requests pass" true (List.exists Option.is_none a)

let test_seed_clause () =
  let spec = "disk-fault@1s-3s:p=0.5" in
  let via_arg = Chaos.create ~seed:7 spec in
  let via_clause = Chaos.create ("seed=7;" ^ spec) in
  check_bool "seed= clause equals ~seed" true (draws via_arg = draws via_clause)

(* ------------------------------------------------------------------ *)
(* Hook points (no engine needed: hooks take ~now explicitly)          *)
(* ------------------------------------------------------------------ *)

let test_disk_fault_window () =
  let t = Chaos.create "disk-fault@1s-2s:p=1,fails=2" in
  check_bool "before" true (Chaos.disk_fault t ~now:(Time_ns.ms 500) = None);
  (match Chaos.disk_fault t ~now:(Time_ns.ms 1_500) with
  | Some (2, backoff) -> check_int "default backoff" (Time_ns.us 500) backoff
  | Some (k, _) -> Alcotest.failf "expected 2 planned failures, got %d" k
  | None -> Alcotest.fail "no fault inside the window");
  check_bool "after" true (Chaos.disk_fault t ~now:(Time_ns.ms 2_500) = None)

let test_stall_windows () =
  let t = Chaos.create "releaser-stall@1s-3s;daemon-stall@2s-4s" in
  check_bool "releaser stalled" true
    (Chaos.stall_until t `Releaser ~now:(Time_ns.sec 2) = Some (Time_ns.sec 3));
  check_bool "daemon has its own window" true
    (Chaos.stall_until t `Daemon ~now:(Time_ns.ms 1_500) = None);
  check_bool "daemon stalled later" true
    (Chaos.stall_until t `Daemon ~now:(Time_ns.ms 3_500) = Some (Time_ns.sec 4));
  check_bool "outside both" true
    (Chaos.stall_until t `Releaser ~now:(Time_ns.sec 5) = None)

let test_drop_directive () =
  let t = Chaos.create "releaser-drop@1s-2s:p=1" in
  check_bool "outside window" false (Chaos.drop_directive t ~now:(Time_ns.ms 500));
  check_bool "inside window" true (Chaos.drop_directive t ~now:(Time_ns.ms 1_500));
  check_int "drop counted" 1 (Chaos.stats t).Chaos.directives_dropped

let test_pressure_spikes_sorted () =
  let t = Chaos.create "pressure@5s-6s:pages=10;pressure@1s-2s:pages=20,hold=2s" in
  match Chaos.pressure_spikes t with
  | [ (s1, p1, h1); (s2, p2, h2) ] ->
      check_int "earliest first" (Time_ns.sec 1) s1;
      check_int "its pages" 20 p1;
      check_int "its hold" (Time_ns.sec 2) h1;
      check_int "then the later spike" (Time_ns.sec 5) s2;
      check_int "default pages is 64 when omitted elsewhere" 10 p2;
      check_int "default hold" (Time_ns.sec 1) h2
  | l -> Alcotest.failf "expected 2 spikes, got %d" (List.length l)

let test_disk_slow_factor () =
  let t = Chaos.create "disk-slow@1s-2s:factor=8" in
  check_bool "idle before" true (Chaos.disk_slow_factor t ~now:(Time_ns.ms 500) = 1.0);
  check_bool "spiking inside" true
    (Chaos.disk_slow_factor t ~now:(Time_ns.ms 1_500) = 8.0);
  check_bool "idle after" true (Chaos.disk_slow_factor t ~now:(Time_ns.sec 3) = 1.0)

(* ------------------------------------------------------------------ *)
(* Disk integration: retries, backoff, timeouts, sequentiality         *)
(* ------------------------------------------------------------------ *)

let test_disk_retry_accounting () =
  let chaos = Chaos.create "disk-fault@0s-1h:p=1,fails=2,backoff=1ms" in
  let d = Disk.create ~chaos ~id:0 () in
  let clean = Disk.create ~id:1 () in
  let faulted = ref 0 and base = ref 0 in
  let _ =
    run_sim (fun () ->
        Disk.read d ~block:100 ~bytes:16_384;
        faulted := Engine.now ())
  in
  let _ =
    run_sim (fun () ->
        Disk.read clean ~block:100 ~bytes:16_384;
        base := Engine.now ())
  in
  check_int "one faulted request" 1 (Disk.faults_injected d);
  check_int "two failed attempts" 2 (Disk.retry_attempts d);
  (* exponential backoff: 1 ms + 2 ms *)
  check_int "backoff accumulated" (Time_ns.ms 3) (Disk.backoff_time d);
  (* each failed attempt also pays command overhead *)
  let p = Disk.cheetah_4lp in
  check_int "retries delay the request" (!base + Time_ns.ms 3 + (2 * p.Disk.overhead_ns))
    !faulted;
  check_int "chaos counters agree" 2 (Chaos.stats chaos).Chaos.disk_retries;
  check_int "chaos backoff agrees" (Time_ns.ms 3)
    (Chaos.stats chaos).Chaos.disk_backoff_ns

let test_disk_timeout_counted () =
  (* a 10x latency spike pushes one random 16 KB read past the 100 ms
     SCSI deadline (queueing + service ~ 120 ms) *)
  let chaos = Chaos.create "disk-slow@0s-1h:factor=10" in
  let d = Disk.create ~chaos ~id:0 () in
  let _ = run_sim (fun () -> Disk.read d ~block:100 ~bytes:16_384) in
  check_int "request timed out" 1 (Disk.timeouts d);
  check_int "slow request counted" 1 (Chaos.stats chaos).Chaos.slow_requests

let test_faulted_request_earns_no_seq_discount () =
  (* Regression: a faulted request must not be treated as sequential with
     the previous block — the head's position is unknown after an error.
     Blocks 10,11,12 back-to-back, with only the middle read faulted:
     without the fix the faulted read of block 11 would count a bogus
     sequential hit (2 total); with it only the clean read of block 12
     earns the discount. *)
  let chaos = Chaos.create "disk-fault@10ms-20ms:p=1,fails=1" in
  let d = Disk.create ~chaos ~id:0 () in
  let _ =
    run_sim (fun () ->
        Disk.read d ~block:10 ~bytes:16_384;
        check_bool "second read falls in the fault window" true
          (Engine.now () >= Time_ns.ms 10 && Engine.now () < Time_ns.ms 20);
        Disk.read d ~block:11 ~bytes:16_384;
        Disk.read d ~block:12 ~bytes:16_384)
  in
  check_int "middle read faulted" 1 (Disk.faults_injected d);
  check_int "only the clean follow-up is sequential" 1 (Disk.sequential_hits d)

(* ------------------------------------------------------------------ *)
(* End-to-end chaos runs (quick machine)                               *)
(* ------------------------------------------------------------------ *)

let run_chaos ?governor ~workload ~variant spec =
  let r =
    E.run
      (E.setup ~machine:Machine.quick ~iterations:1 ~chaos:spec ?governor
         ~workload:(Workload.find workload) ~variant ())
  in
  check_bool "OS invariants hold after the injected schedule" true
    r.E.r_invariants_ok;
  r

let chaos_stats r =
  match r.E.r_chaos with
  | Some cs -> cs
  | None -> Alcotest.fail "chaos run carries no chaos stats"

let test_experiment_releaser_outage () =
  (* drops and stalls in separate runs: a dropped directive never reaches
     the releaser, so a drop window covering the stall window would mask
     the stall entirely *)
  let r = run_chaos ~workload:"MATVEC" ~variant:E.R "releaser-drop@0s-6s:p=1" in
  let cs = chaos_stats r in
  check_bool "directives dropped" true (cs.Chaos.directives_dropped > 0);
  check_bool "run still completes" true (r.E.r_iterations >= 1);
  let r = run_chaos ~workload:"MATVEC" ~variant:E.R "releaser-stall@0s-4s" in
  let cs = chaos_stats r in
  check_bool "releaser stalled" true (cs.Chaos.releaser_stall_ns > 0)

let test_experiment_daemon_stall_and_pressure () =
  (* the O variant has no run-time layer: chaos must work at the OS level
     alone, with no governor in the loop *)
  let r =
    run_chaos ~workload:"MATVEC" ~variant:E.O
      "daemon-stall@0s-3s;pressure@500ms-2s:pages=256,hold=1s"
  in
  let cs = chaos_stats r in
  check_bool "daemon stalled" true (cs.Chaos.daemon_stall_ns > 0);
  check_int "one spike" 1 cs.Chaos.pressure_spikes;
  check_bool "frames were grabbed" true (cs.Chaos.pressure_pages > 0);
  check_bool "no runtime layer in O" true (r.E.r_runtime = None)

let test_chaos_metrics_byte_deterministic () =
  let spec = "disk-fault@1s-3s:p=0.5,retries=4;disk-slow@1s-3s:factor=8" in
  let once () =
    let r = run_chaos ~workload:"EMBAR" ~variant:E.B spec in
    Mio.to_string (Mio.metrics_json (Metrics.of_results ~label:"chaos" [ r ]))
  in
  let a = once () in
  check_bool "faults actually injected" true
    (let r = Mio.parse a in
     match r with Ok _ -> String.length a > 0 | Error e -> Alcotest.fail e);
  Alcotest.(check string) "same seed, same spec: byte-identical metrics" a (once ())

let () =
  Alcotest.run "memhog_chaos"
    [
      ( "spec",
        [
          Alcotest.test_case "all kinds parse" `Quick test_parse_all_kinds;
          Alcotest.test_case "malformed specs rejected" `Quick test_parse_errors;
          Alcotest.test_case "draw determinism" `Quick test_draw_determinism;
          Alcotest.test_case "seed clause" `Quick test_seed_clause;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "disk-fault window" `Quick test_disk_fault_window;
          Alcotest.test_case "stall windows" `Quick test_stall_windows;
          Alcotest.test_case "drop directive" `Quick test_drop_directive;
          Alcotest.test_case "pressure spikes sorted" `Quick
            test_pressure_spikes_sorted;
          Alcotest.test_case "disk-slow factor" `Quick test_disk_slow_factor;
        ] );
      ( "disk",
        [
          Alcotest.test_case "retry accounting" `Quick test_disk_retry_accounting;
          Alcotest.test_case "timeout counted" `Quick test_disk_timeout_counted;
          Alcotest.test_case "no seq discount after fault" `Quick
            test_faulted_request_earns_no_seq_discount;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "releaser outage" `Quick test_experiment_releaser_outage;
          Alcotest.test_case "daemon stall + pressure" `Quick
            test_experiment_daemon_stall_and_pressure;
          Alcotest.test_case "metrics byte-deterministic" `Quick
            test_chaos_metrics_byte_deterministic;
        ] );
    ]
