(* Tests for the fault-tolerant tiered backing store: the spec parser, the
   circuit breaker's state machine, swap-copy rescue, the shared retry
   backoff schedule, and the tiered chaos cell's byte-determinism at any
   --jobs level. *)

open Memhog_sim
module Swap = Memhog_disk.Swap
module Tiers = Memhog_vm.Tiers
module E = Memhog_core.Experiment
module Workload = Memhog_workloads.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Spec parser                                                         *)
(* ------------------------------------------------------------------ *)

let test_spec_accepts () =
  List.iter
    (fun s ->
      match Tiers.spec_of_string s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "spec %S should parse: %s" s e)
    [
      "far";
      "zram";
      "far+zram";
      "far:latency=5us,bw=1000,timeout=500us,attempts=4,backoff=50us,cap=2ms";
      "zram:cap=16M,compress=900ns,decompress=400ns";
      "far+zram+route:thresh=1,ewma=0.3,open=0.5,min=3,hold=50ms,cap=1s";
      " far + route:min=1,hold=1ms,cap=1ms ";
    ]

let test_spec_rejects () =
  List.iter
    (fun s ->
      match Tiers.spec_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S should be rejected" s)
    [
      "";
      "route";                        (* names no tier *)
      "bogus";
      "far+far";                      (* duplicate clause *)
      "far:latency=banana";
      "far:attempts=0";
      "zram:cap=-1";
      "far+route:ewma=1.5";           (* out of (0,1] *)
      "far+route:open=0";
      "far+route:min=0";
      "far+route:hold=5ms,cap=1ms";   (* cap below hold *)
    ]

let test_spec_exn () =
  (match Tiers.spec_of_string_exn "far" with
  | _ -> ());
  Alcotest.check_raises "malformed raises"
    (Invalid_argument "unknown tier \"nope\" (expected far, zram or route)")
    (fun () -> ignore (Tiers.spec_of_string_exn "nope"))

(* Chaos plans and tiers specs read their values through one lexer
   (Spec_lex): each value of a table is accepted by both grammars or by
   neither, and a value the lexer rejects draws the lexer's own message
   from both. *)
let test_specs_lex_alike () =
  let verdict = function Ok _ -> "accepts" | Error e -> "rejects: " ^ e in
  let alike ~lex ~chaos ~tiers values =
    List.iter
      (fun v ->
        let c = Result.map ignore (Chaos.parse (chaos ^ v))
        and t = Result.map ignore (Tiers.spec_of_string (tiers ^ v)) in
        (match (c, t) with
        | Ok _, Ok _ | Error _, Error _ -> ()
        | _ ->
            Alcotest.failf "%S: chaos %s, tiers %s" v (verdict c) (verdict t));
        match lex ~key:"k" v with
        | _ -> ()
        | exception Spec_lex.Bad m ->
            let m = String.sub m 3 (String.length m - 3) (* drop "k: " *) in
            List.iter
              (fun (grammar, r) ->
                check_bool
                  (Printf.sprintf "%s on %S %s" grammar v (verdict r))
                  true
                  (match r with
                  | Error e -> String.ends_with ~suffix:m e
                  | Ok _ -> false))
              [ ("chaos", c); ("tiers", t) ])
      values
  in
  alike ~lex:Spec_lex.time ~chaos:"disk-fault@0s-1s:backoff="
    ~tiers:"far:timeout="
    [
      "1s"; "500us"; "2ms"; "250ns"; "1m"; "1h"; "10"; "1.5s"; " 3s "; "0";
      "0q"; "banana"; ""; "-1s"; "ms";
    ];
  alike ~lex:Spec_lex.int ~chaos:"disk-fault@0s-1s:retries="
    ~tiers:"far:attempts="
    [ "1"; "4"; " 3 "; "0"; "-2"; "x"; "1.5"; "" ];
  alike ~lex:Spec_lex.float
    ~chaos:"net-brownout@0s-1s:factor=2,bandwidth=" ~tiers:"far+route:ewma="
    [ "0.5"; "1"; "1.0"; "1e-3"; "0"; "1.5"; "-0.1"; "abc"; "" ]

(* ------------------------------------------------------------------ *)
(* Circuit breaker state machine                                       *)
(* ------------------------------------------------------------------ *)

(* A router over a tiny far tier with a fast retry plan and an explicit
   route: three failed samples push the EWMA (alpha 0.5) to 0.875 >= 0.5,
   so the breaker opens exactly at the third failure. *)
let breaker_spec =
  "far:latency=10us,timeout=100us,attempts=2,backoff=10us,cap=40us"
  ^ "+route:ewma=0.5,open=0.5,min=3,hold=10ms,cap=40ms"

let make_router ?chaos () =
  let e = Engine.create () in
  let swap = Swap.create ~page_bytes:16_384 () in
  let spec = Tiers.spec_of_string_exn breaker_spec in
  let t = Tiers.create ?chaos ~engine:e ~page_bytes:16_384 ~swap spec () in
  (e, t)

let demote t page =
  Tiers.demote t ~page ~pid:1 ~vpn:page ~site:0 ~priority:(Some 0)

let test_breaker_opens_on_sustained_timeouts () =
  let chaos = Chaos.create "net-partition@0s-1000s" in
  let e, t = make_router ~chaos () in
  ignore
    (Engine.spawn e ~name:"drive" (fun () ->
         check_int "starts closed" 0 (Tiers.breaker_state t);
         for p = 0 to 2 do
           demote t p
         done;
         check_int "open after 3 sustained failures" 2 (Tiers.breaker_state t);
         check_bool "far_open reported" true (Tiers.far_open t);
         check_int "one transition so far" 1 (Tiers.breaker_transitions t);
         check_int "every placement failed over" 3 (Tiers.far_failovers t);
         (* While open and inside the hold-off, placements are refused
            without touching the link: no simulated time passes. *)
         let before = Engine.now () in
         demote t 3;
         check_int "refusal is instant" before (Engine.now ());
         check_int "refusal counted as failover" 4 (Tiers.far_failovers t);
         check_int "still open" 2 (Tiers.breaker_state t)));
  Engine.run e

let test_breaker_probe_failure_reopens_with_longer_hold () =
  let chaos = Chaos.create "net-partition@0s-1000s" in
  let e, t = make_router ~chaos () in
  ignore
    (Engine.spawn e ~name:"drive" (fun () ->
         for p = 0 to 2 do
           demote t p
         done;
         check_int "open" 2 (Tiers.breaker_state t);
         (* Past the 10ms hold-off the next placement is admitted as the
            half-open probe; the link is still dead, so it re-opens. *)
         Engine.delay ~cat:Account.Sleep (Time_ns.ms 11);
         demote t 3;
         check_int "probe failure re-opens" 2 (Tiers.breaker_state t);
         check_int "open -> half-open -> open" 3 (Tiers.breaker_transitions t);
         (* The hold-off doubled to 20ms: a placement 11ms after the
            re-open is still inside it and must be refused instantly. *)
         Engine.delay ~cat:Account.Sleep (Time_ns.ms 11);
         let before = Engine.now () in
         demote t 4;
         check_int "inside doubled hold: instant refusal" before
           (Engine.now ());
         check_int "no transition from a refusal" 3
           (Tiers.breaker_transitions t)));
  Engine.run e

let test_breaker_probe_success_closes () =
  (* Partition ends at 2s; the post-heal probe must close the breaker and
     reset the hold-off. *)
  let chaos = Chaos.create "net-partition@0s-2s" in
  let e, t = make_router ~chaos () in
  ignore
    (Engine.spawn e ~name:"drive" (fun () ->
         for p = 0 to 2 do
           demote t p
         done;
         check_int "open during partition" 2 (Tiers.breaker_state t);
         Engine.delay ~cat:Account.Sleep (Time_ns.sec 3);
         demote t 3;
         check_int "post-heal probe closes" 0 (Tiers.breaker_state t);
         check_bool "far_open off" false (Tiers.far_open t);
         (* closed -> open, open -> half-open, half-open -> closed *)
         check_int "three transitions" 3 (Tiers.breaker_transitions t);
         (* And the closed breaker serves normally again. *)
         demote t 4;
         check_int "no new failovers after recovery" 3 (Tiers.far_failovers t)));
  Engine.run e

(* ------------------------------------------------------------------ *)
(* Rescue from the durable swap copy                                   *)
(* ------------------------------------------------------------------ *)

let test_fetch_rescued_from_swap_copy () =
  (* Place while healthy, partition the link, then fetch: the read must
     burn its bounded retry plan, fall back to the swap copy, and drop
     the dead placement — the fiber never blocks past the retry budget. *)
  let chaos = Chaos.create "net-partition@1s-1000s" in
  let e, t = make_router ~chaos () in
  ignore
    (Engine.spawn e ~name:"drive" (fun () ->
         demote t 0;
         check_int "placed while healthy" 1 (Tiers.placed_pages t);
         Engine.delay ~cat:Account.Sleep (Time_ns.sec 2);
         Tiers.fetch t ~page:0 ();
         check_int "rescued from the swap copy" 1 (Tiers.rescues t);
         check_int "placement dropped" 0 (Tiers.placed_pages t)));
  Engine.run e

(* ------------------------------------------------------------------ *)
(* Retry/backoff schedule (qcheck)                                     *)
(* ------------------------------------------------------------------ *)

let backoff_gen =
  QCheck.(
    triple (int_range 1 1_000_000) (int_range 0 1_000_000) (int_range 1 64))

let prop_backoff_monotone_and_clamped =
  QCheck.Test.make ~name:"backoff: monotone, never below base or above cap"
    ~count:500 backoff_gen (fun (base, extra, attempts) ->
      let cap = base + extra in
      let prev = ref 0 in
      List.for_all
        (fun attempt ->
          let d = Chaos.backoff_delay ~base ~cap ~attempt in
          let ok = d >= base && d <= cap && d >= !prev in
          prev := d;
          ok)
        (List.init attempts (fun i -> i + 1)))

let prop_backoff_deterministic =
  QCheck.Test.make ~name:"backoff: equal inputs, equal schedule" ~count:200
    backoff_gen (fun (base, extra, attempts) ->
      let cap = base + extra in
      let schedule () =
        List.init attempts (fun i ->
            Chaos.backoff_delay ~base ~cap ~attempt:(i + 1))
      in
      schedule () = schedule ())

let prop_backoff_exact_until_cap =
  QCheck.Test.make ~name:"backoff: base * 2^(attempt-1) until the cap"
    ~count:200
    QCheck.(pair (int_range 1 1000) (int_range 1 20))
    (fun (base, attempt) ->
      let cap = max_int / 2 in
      Chaos.backoff_delay ~base ~cap ~attempt = base * (1 lsl (attempt - 1)))

let test_backoff_bounds () =
  Alcotest.check_raises "base 0" (Invalid_argument
    "Chaos.backoff_delay: base must be >= 1") (fun () ->
      ignore (Chaos.backoff_delay ~base:0 ~cap:10 ~attempt:1));
  Alcotest.check_raises "cap below base" (Invalid_argument
    "Chaos.backoff_delay: cap must be >= base") (fun () ->
      ignore (Chaos.backoff_delay ~base:10 ~cap:5 ~attempt:1));
  Alcotest.check_raises "attempt 0" (Invalid_argument
    "Chaos.backoff_delay: attempt must be >= 1") (fun () ->
      ignore (Chaos.backoff_delay ~base:10 ~cap:20 ~attempt:0));
  (* The far tier's retry plan is bounded: huge attempt numbers saturate
     at the cap instead of overflowing. *)
  check_int "saturates" 64 (Chaos.backoff_delay ~base:1 ~cap:64 ~attempt:60)

(* ------------------------------------------------------------------ *)
(* Tiered chaos cell: end-to-end + byte-determinism                    *)
(* ------------------------------------------------------------------ *)

let tiered_cell () =
  E.run
    (E.setup ~machine:Memhog_core.Machine.quick
       ~workload:(Workload.find "EMBAR") ~variant:E.R
       ~chaos:"net-partition@1s-3s" ~tiers:"far" ())

let test_partition_cell_completes () =
  let r = tiered_cell () in
  check_bool "invariants (frame table vs tier occupancy)" true
    r.E.r_invariants_ok;
  let s = Option.get r.E.r_tiers in
  let far =
    List.find
      (fun (row : Tiers.tier_summary) -> row.Tiers.ts_tier = Tiers.tier_far)
      s.Tiers.s_tiers
  in
  check_bool "partition produced timeouts" true (far.Tiers.ts_timeouts > 0);
  check_bool "demotions failed over" true (far.Tiers.ts_failovers > 0);
  check_bool "reads were rescued" true (s.Tiers.s_rescues > 0);
  check_bool "breaker cycled" true (far.Tiers.ts_breaker_transitions > 0);
  check_int "breaker closed again after the heal" 0 s.Tiers.s_breaker_state

let metrics_bytes ~jobs =
  let results =
    Memhog_core.Pool.map ~jobs (fun _ -> tiered_cell ()) [ 0; 1 ]
  in
  Memhog_core.Metrics_io.to_string
    (Memhog_core.Metrics_io.metrics_json
       (Memhog_core.Metrics.of_results ~label:"tiered chaos" results))

let test_tiered_cell_bytes_jobs_independent () =
  Alcotest.(check string)
    "jobs=1 == jobs=8" (metrics_bytes ~jobs:1) (metrics_bytes ~jobs:8)

let () =
  Alcotest.run "tiers"
    [
      ( "spec",
        [
          Alcotest.test_case "accepts well-formed specs" `Quick
            test_spec_accepts;
          Alcotest.test_case "rejects malformed specs" `Quick
            test_spec_rejects;
          Alcotest.test_case "exn variant raises" `Quick test_spec_exn;
          Alcotest.test_case "values lexed alike by chaos and tiers" `Quick
            test_specs_lex_alike;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens on sustained timeouts" `Quick
            test_breaker_opens_on_sustained_timeouts;
          Alcotest.test_case "probe failure re-opens, hold doubles" `Quick
            test_breaker_probe_failure_reopens_with_longer_hold;
          Alcotest.test_case "probe success closes" `Quick
            test_breaker_probe_success_closes;
          Alcotest.test_case "fetch rescued from swap copy" `Quick
            test_fetch_rescued_from_swap_copy;
        ] );
      ( "backoff",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_backoff_monotone_and_clamped;
            prop_backoff_deterministic;
            prop_backoff_exact_until_cap;
          ]
        @ [ Alcotest.test_case "bounds and saturation" `Quick
              test_backoff_bounds ] );
      ( "integration",
        [
          Alcotest.test_case "partition cell completes with failover" `Slow
            test_partition_cell_completes;
          Alcotest.test_case "tiered metrics byte-identical at any jobs"
            `Slow test_tiered_cell_bytes_jobs_independent;
        ] );
    ]
