(* Tests for the event-trace subsystem: ring-buffer semantics, the
   disabled/null fast path, event emission from a live simulation, and the
   Chrome trace_event / CSV exporters. *)

open Memhog_sim
module Vm = Memhog_vm
module Os = Vm.Os
module As = Vm.Address_space
module Trace_export = Memhog_core.Trace_export

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains what sub s =
  if not (contains ~sub s) then
    Alcotest.failf "%s: expected substring %S in:\n%s" what sub s

(* ------------------------------------------------------------------ *)
(* Ring buffer semantics                                               *)
(* ------------------------------------------------------------------ *)

let test_ring_retention_and_overflow () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 5 do
    Trace.emit t ~time:(Time_ns.us i) ~stream:0 (Trace.Hard_fault { vpn = i })
  done;
  check_int "retained" 4 (Trace.length t);
  check_int "oldest overwritten" 2 (Trace.dropped t);
  let seen = ref [] in
  Trace.iter t (fun ~time:_ ~stream:_ ev ->
      match ev with
      | Trace.Hard_fault { vpn } -> seen := vpn :: !seen
      | _ -> Alcotest.fail "unexpected event kind");
  Alcotest.(check (list int)) "last four, oldest first" [ 2; 3; 4; 5 ]
    (List.rev !seen);
  Trace.clear t;
  check_int "cleared" 0 (Trace.length t);
  check_int "dropped reset" 0 (Trace.dropped t)

let test_disabled_traces_record_nothing () =
  Trace.emit Trace.null ~time:Time_ns.zero ~stream:0 (Trace.Soft_fault { vpn = 1 });
  check_bool "null disabled" false (Trace.enabled Trace.null);
  check_int "null stays empty" 0 (Trace.length Trace.null);
  let t = Trace.create ~capacity:0 () in
  Trace.emit t ~time:Time_ns.zero ~stream:0 (Trace.Soft_fault { vpn = 1 });
  check_bool "capacity 0 is disabled" false (Trace.enabled t);
  check_int "disabled trace stays empty" 0 (Trace.length t);
  check_int "nothing dropped" 0 (Trace.dropped t);
  (* The bus is off exactly when neither event sink is on. *)
  check_bool "null bus off" false (Obs.on Obs.null);
  check_bool "bus over a disabled ring off" false
    (Obs.on (Obs.create ~trace:t ~reqtrace:(Reqtrace.create ~seed:1 ()) ()));
  let ring = Trace.create ~capacity:8 () in
  let obs = Obs.create ~trace:ring () in
  check_bool "ring turns the bus on" true (Obs.on obs);
  check_bool "ledger turns the bus on" true
    (Obs.on (Obs.create ~ledger:(Ledger.create ()) ()));
  Obs.emit obs ~time:Time_ns.zero ~stream:0 (Trace.Soft_fault { vpn = 1 });
  check_int "bus feeds the ring" 1 (Trace.length ring)

let test_stream_names_and_tallies () =
  let t = Trace.create ~capacity:16 () in
  Trace.set_stream_name t 3 "app";
  Trace.set_stream_name t Trace.daemon_stream "paging-daemon";
  check_bool "named" true (Trace.stream_name t 3 = Some "app");
  check_bool "unnamed" true (Trace.stream_name t 9 = None);
  Alcotest.(check (list int)) "ids sorted" [ Trace.daemon_stream; 3 ]
    (Trace.stream_ids t);
  Trace.emit t ~time:(Time_ns.us 1) ~stream:3 (Trace.Hard_fault { vpn = 7 });
  Trace.emit t ~time:(Time_ns.us 2) ~stream:3 (Trace.Hard_fault { vpn = 8 });
  Trace.emit t ~time:(Time_ns.us 3) ~stream:Trace.daemon_stream
    (Trace.Daemon_steal { vpn = 7; owner = 3 });
  Alcotest.(check (list (pair string int)))
    "tally sorted by name"
    [ ("daemon_steal", 1); ("hard_fault", 2) ]
    (Trace.counts t)

(* One sample of every event kind, two of each kind with a bool payload,
   each beside the name and arguments [Trace.describe] must give it: the
   strings the Chrome exporter and [Trace.counts] have always written.
   [from ev] is [ev]'s row, then the rows of the kinds declared after it.
   Its match has no wildcard, so a kind added to [Trace.event] does not
   compile until it has an arm here, and its bool payloads are matched
   both ways.  The fields of one sample hold different values, so a
   swapped field shows. *)
let pinned =
  let vpn = 11 and site = 3 and owner = 2 and count = 5 and ns = 900 in
  let priority = 4 and tag = 6 and disk = 1 and block = 77 and pages = 12 in
  let depth = 8 and attempt = 2 and hold = 40 and until = 5000 in
  let page = 21 and tier = 1 and value_ppm = 250_000 in
  let rec from (ev : Trace.event) =
    let pin name args next =
      (ev, name, args) :: Option.fold ~none:[] ~some:from next
    in
    match ev with
    | Hard_fault _ ->
        pin "hard_fault" [ ("vpn", "11") ] (Some (Soft_fault { vpn }))
    | Soft_fault _ ->
        pin "soft_fault" [ ("vpn", "11") ] (Some (Validation_fault { vpn }))
    | Validation_fault _ ->
        pin "validation_fault" [ ("vpn", "11") ] (Some (Zero_fill { vpn }))
    | Zero_fill _ ->
        pin "zero_fill" [ ("vpn", "11") ]
          (Some (Rescue { vpn; for_prefetch = true; site }))
    | Rescue { for_prefetch = true; _ } ->
        pin "rescue"
          [ ("vpn", "11"); ("for_prefetch", "true"); ("site", "3") ]
          (Some (Rescue { vpn; for_prefetch = false; site = Trace.no_site }))
    | Rescue { for_prefetch = false; _ } ->
        pin "rescue"
          [ ("vpn", "11"); ("for_prefetch", "false"); ("site", "-1") ]
          (Some (Prefetch_issued { vpn; site }))
    | Prefetch_issued _ ->
        pin "prefetch_issued" [ ("vpn", "11"); ("site", "3") ]
          (Some (Prefetch_dropped { vpn; site }))
    | Prefetch_dropped _ ->
        pin "prefetch_dropped" [ ("vpn", "11"); ("site", "3") ]
          (Some (Prefetch_raced { vpn; site }))
    | Prefetch_raced _ ->
        pin "prefetch_raced" [ ("vpn", "11"); ("site", "3") ]
          (Some (Prefetch_done { vpn; site; ns }))
    | Prefetch_done _ ->
        pin "prefetch_done" [ ("vpn", "11"); ("site", "3"); ("ns", "900") ]
          (Some (Daemon_steal { vpn; owner }))
    | Daemon_steal _ ->
        pin "daemon_steal" [ ("vpn", "11"); ("owner", "2") ]
          (Some (Daemon_invalidate { vpn; owner }))
    | Daemon_invalidate _ ->
        pin "daemon_invalidate" [ ("vpn", "11"); ("owner", "2") ]
          (Some (Releaser_free { vpn; owner; site }))
    | Releaser_free _ ->
        pin "releaser_free" [ ("vpn", "11"); ("owner", "2"); ("site", "3") ]
          (Some (Release_requested { owner; count }))
    | Release_requested _ ->
        pin "release_requested" [ ("owner", "2"); ("count", "5") ]
          (Some (Release_skipped { vpn; owner; site }))
    | Release_skipped _ ->
        pin "release_skipped" [ ("vpn", "11"); ("owner", "2"); ("site", "3") ]
          (Some (Writeback_complete { vpn; owner }))
    | Writeback_complete _ ->
        pin "writeback_complete" [ ("vpn", "11"); ("owner", "2") ]
          (Some (Frame_reused { vpn; owner }))
    | Frame_reused _ ->
        pin "frame_reused" [ ("vpn", "11"); ("owner", "2") ]
          (Some (Rt_prefetch_sent { vpn; site }))
    | Rt_prefetch_sent _ ->
        pin "rt_prefetch_sent" [ ("vpn", "11"); ("site", "3") ]
          (Some (Rt_release_hint { vpn; site; priority }))
    | Rt_release_hint _ ->
        pin "rt_release_hint"
          [ ("vpn", "11"); ("site", "3"); ("priority", "4") ]
          (Some (Rt_release_sent { vpn; site }))
    | Rt_release_sent _ ->
        pin "rt_release_sent" [ ("vpn", "11"); ("site", "3") ]
          (Some (Rt_release_filtered { vpn; reason = "bitmap"; site }))
    | Rt_release_filtered _ ->
        pin "rt_release_filtered"
          [ ("vpn", "11"); ("reason", "bitmap"); ("site", "3") ]
          (Some (Rt_release_buffered { vpn; tag; priority }))
    | Rt_release_buffered _ ->
        pin "rt_release_buffered"
          [ ("vpn", "11"); ("tag", "6"); ("priority", "4") ]
          (Some (Rt_release_issued { count }))
    | Rt_release_issued _ ->
        pin "rt_release_issued" [ ("count", "5") ]
          (Some (Rt_release_drained { count }))
    | Rt_release_drained _ ->
        pin "rt_release_drained" [ ("count", "5") ]
          (Some (Rt_stale_dropped { vpn; site }))
    | Rt_stale_dropped _ ->
        pin "rt_stale_dropped" [ ("vpn", "11"); ("site", "3") ]
          (Some (Disk_io { disk; block; write = true; ns }))
    | Disk_io { write = true; _ } ->
        pin "disk_io"
          [ ("disk", "1"); ("block", "77"); ("write", "true"); ("ns", "900") ]
          (Some (Disk_io { disk; block; write = false; ns }))
    | Disk_io { write = false; _ } ->
        pin "disk_io"
          [ ("disk", "1"); ("block", "77"); ("write", "false"); ("ns", "900") ]
          (Some (Free_depth { pages }))
    | Free_depth _ ->
        pin "free_depth" [ ("pages", "12") ] (Some (Rss_sample { owner; pages }))
    | Rss_sample _ ->
        pin "rss_sample" [ ("owner", "2"); ("pages", "12") ]
          (Some (Upper_limit_sample { owner; pages }))
    | Upper_limit_sample _ ->
        pin "upper_limit_sample" [ ("owner", "2"); ("pages", "12") ]
          (Some (Queue_depth { owner; depth }))
    | Queue_depth _ ->
        pin "queue_depth" [ ("owner", "2"); ("depth", "8") ]
          (Some (Phase_begin { name = "main" }))
    | Phase_begin _ ->
        pin "phase_begin" [ ("name", "main") ]
          (Some (Phase_end { name = "main" }))
    | Phase_end _ ->
        pin "phase_end" [ ("name", "main") ]
          (Some (Chaos_disk_fault { disk; block; attempt }))
    | Chaos_disk_fault _ ->
        pin "chaos_disk_fault"
          [ ("disk", "1"); ("block", "77"); ("attempt", "2") ]
          (Some (Chaos_stall { who = "releaser"; until }))
    | Chaos_stall _ ->
        pin "chaos_stall" [ ("who", "releaser"); ("until", "5000") ]
          (Some (Chaos_drop_directive { count }))
    | Chaos_drop_directive _ ->
        pin "chaos_drop_directive" [ ("count", "5") ]
          (Some (Chaos_pressure { pages; hold }))
    | Chaos_pressure _ ->
        pin "chaos_pressure" [ ("pages", "12"); ("hold", "40") ]
          (Some (Chaos_pressure_end { pages }))
    | Chaos_pressure_end _ ->
        pin "chaos_pressure_end" [ ("pages", "12") ]
          (Some
             (Governor_transition
                { level_from = 0; level_to = 2; drop_pct = 35; stale_pct = 60 }))
    | Governor_transition _ ->
        pin "governor_transition"
          [ ("level_from", "0"); ("level_to", "2"); ("drop_pct", "35");
            ("stale_pct", "60") ]
          (Some (Tier_demote { page; tier; site }))
    | Tier_demote _ ->
        pin "tier_demote" [ ("page", "21"); ("tier", "1"); ("site", "3") ]
          (Some (Tier_fetch { page; tier }))
    | Tier_fetch _ ->
        pin "tier_fetch" [ ("page", "21"); ("tier", "1") ]
          (Some (Tier_timeout { page; tier; attempt }))
    | Tier_timeout _ ->
        pin "tier_timeout" [ ("page", "21"); ("tier", "1"); ("attempt", "2") ]
          (Some (Tier_failover { page; tier_from = 1; tier_to = 0 }))
    | Tier_failover _ ->
        pin "tier_failover"
          [ ("page", "21"); ("tier_from", "1"); ("tier_to", "0") ]
          (Some (Tier_rescue { page; site }))
    | Tier_rescue _ ->
        pin "tier_rescue" [ ("page", "21"); ("site", "3") ]
          (Some (Breaker_transition { tier; state_from = 0; state_to = 2 }))
    | Breaker_transition _ ->
        pin "breaker_transition"
          [ ("tier", "1"); ("state_from", "0"); ("state_to", "2") ]
          (Some (Alert_fire { rule = "rss-high"; value_ppm }))
    | Alert_fire _ ->
        pin "alert_fire" [ ("rule", "rss-high"); ("value_ppm", "250000") ]
          (Some (Alert_clear { rule = "rss-high"; value_ppm }))
    | Alert_clear _ ->
        pin "alert_clear" [ ("rule", "rss-high"); ("value_ppm", "250000") ] None
  in
  from (Hard_fault { vpn })

let test_event_names_and_args () =
  List.iter
    (fun (ev, name, args) ->
      let got_name, got_args = Trace.describe ev in
      check_string "name" name got_name;
      Alcotest.(check (list (pair string string))) (name ^ " args") args got_args)
    pinned;
  check_int "one sample per kind, two per bool payload" 47 (List.length pinned)

(* Reference model of the ring: the list of every emitted (time, stream,
   event) triple.  Whatever is emitted — any of the 45 constructors,
   string payloads (fresh copies as well as shared literals), [no_site],
   negative streams — [iter] must give back exactly the last [capacity]
   triples, oldest first, and [dropped] the overflow. *)
let event_gen =
  let open QCheck.Gen in
  let i = oneof [ int_range (-1) 9; int_range (-1_000_000) 1_000_000_000 ] in
  let str = oneof [ return "bitmap"; return "same"; string_size ~gen:printable (0 -- 6) ] in
  let ev =
    [
      map (fun vpn -> Trace.Hard_fault { vpn }) i;
      map (fun vpn -> Trace.Soft_fault { vpn }) i;
      map (fun vpn -> Trace.Validation_fault { vpn }) i;
      map (fun vpn -> Trace.Zero_fill { vpn }) i;
      map3 (fun vpn for_prefetch site -> Trace.Rescue { vpn; for_prefetch; site }) i bool i;
      map2 (fun vpn site -> Trace.Prefetch_issued { vpn; site }) i i;
      map2 (fun vpn site -> Trace.Prefetch_dropped { vpn; site }) i i;
      map2 (fun vpn site -> Trace.Prefetch_raced { vpn; site }) i i;
      map3 (fun vpn site ns -> Trace.Prefetch_done { vpn; site; ns }) i i i;
      map2 (fun vpn owner -> Trace.Daemon_steal { vpn; owner }) i i;
      map2 (fun vpn owner -> Trace.Daemon_invalidate { vpn; owner }) i i;
      map3 (fun vpn owner site -> Trace.Releaser_free { vpn; owner; site }) i i i;
      map2 (fun owner count -> Trace.Release_requested { owner; count }) i i;
      map3 (fun vpn owner site -> Trace.Release_skipped { vpn; owner; site }) i i i;
      map2 (fun vpn owner -> Trace.Writeback_complete { vpn; owner }) i i;
      map2 (fun vpn owner -> Trace.Frame_reused { vpn; owner }) i i;
      map2 (fun vpn site -> Trace.Rt_prefetch_sent { vpn; site }) i i;
      map3 (fun vpn site priority -> Trace.Rt_release_hint { vpn; site; priority }) i i i;
      map2 (fun vpn site -> Trace.Rt_release_sent { vpn; site }) i i;
      map3 (fun vpn reason site -> Trace.Rt_release_filtered { vpn; reason; site }) i str i;
      map3 (fun vpn tag priority -> Trace.Rt_release_buffered { vpn; tag; priority }) i i i;
      map (fun count -> Trace.Rt_release_issued { count }) i;
      map (fun count -> Trace.Rt_release_drained { count }) i;
      map2 (fun vpn site -> Trace.Rt_stale_dropped { vpn; site }) i i;
      map4 (fun disk block write ns -> Trace.Disk_io { disk; block; write; ns }) i i bool i;
      map (fun pages -> Trace.Free_depth { pages }) i;
      map2 (fun owner pages -> Trace.Rss_sample { owner; pages }) i i;
      map2 (fun owner pages -> Trace.Upper_limit_sample { owner; pages }) i i;
      map2 (fun owner depth -> Trace.Queue_depth { owner; depth }) i i;
      map (fun name -> Trace.Phase_begin { name }) str;
      map (fun name -> Trace.Phase_end { name }) str;
      map3 (fun disk block attempt -> Trace.Chaos_disk_fault { disk; block; attempt }) i i i;
      map2 (fun who until -> Trace.Chaos_stall { who; until }) str i;
      map (fun count -> Trace.Chaos_drop_directive { count }) i;
      map2 (fun pages hold -> Trace.Chaos_pressure { pages; hold }) i i;
      map (fun pages -> Trace.Chaos_pressure_end { pages }) i;
      map4
        (fun level_from level_to drop_pct stale_pct ->
          Trace.Governor_transition { level_from; level_to; drop_pct; stale_pct })
        i i i i;
      map3 (fun page tier site -> Trace.Tier_demote { page; tier; site }) i i i;
      map2 (fun page tier -> Trace.Tier_fetch { page; tier }) i i;
      map3 (fun page tier attempt -> Trace.Tier_timeout { page; tier; attempt }) i i i;
      map3 (fun page tier_from tier_to -> Trace.Tier_failover { page; tier_from; tier_to }) i i i;
      map2 (fun page site -> Trace.Tier_rescue { page; site }) i i;
      map3
        (fun tier state_from state_to -> Trace.Breaker_transition { tier; state_from; state_to })
        i i i;
      map2 (fun rule value_ppm -> Trace.Alert_fire { rule; value_ppm }) str i;
      map2 (fun rule value_ppm -> Trace.Alert_clear { rule; value_ppm }) str i;
    ]
  in
  assert (List.length ev = 45);
  triple (int_bound 1_000_000) (int_range (-8) 1000) (oneof ev)

let prop_ring_keeps_last_capacity =
  QCheck.Test.make ~name:"ring keeps exactly the last capacity events"
    ~count:500
    QCheck.(
      pair (int_range 1 8)
        (make
           ~print:(fun l ->
             String.concat "; "
               (List.map
                  (fun (t, s, ev) ->
                    Printf.sprintf "%d@%d:%s" s t (fst (Trace.describe ev)))
                  l))
           Gen.(list_size (0 -- 40) event_gen)))
    (fun (capacity, emitted) ->
      let t = Trace.create ~capacity () in
      List.iter (fun (time, stream, ev) -> Trace.emit t ~time ~stream ev) emitted;
      let got = ref [] in
      Trace.iter t (fun ~time ~stream ev -> got := (time, stream, ev) :: !got);
      let n = List.length emitted in
      let kept = List.filteri (fun k _ -> k >= n - capacity) emitted in
      List.rev !got = kept
      && Trace.length t = List.length kept
      && Trace.dropped t = Int.max 0 (n - capacity))

(* ------------------------------------------------------------------ *)
(* Events from a live simulation                                       *)
(* ------------------------------------------------------------------ *)

let small_config =
  { Vm.Config.default with Vm.Config.total_frames = 64; min_freemem = 4; desfree = 8 }

(* Run a small workload that exercises faults, prefetches and releases with
   tracing on, and return the trace. *)
let traced_run () =
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let trace = Trace.create () in
  let os =
    Os.create ~obs:(Obs.create ~trace ()) ~config:small_config ~engine ()
  in
  ignore
    (Engine.spawn engine ~name:"main" (fun () ->
         Fun.protect ~finally:Engine.stop (fun () ->
             let asp = Os.new_process os ~name:"app" in
             let seg =
               Os.map_segment os asp ~name:"d" ~bytes:(16 * 16384) ~on_swap:true
             in
             for i = 0 to 7 do
               ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
             done;
             ignore (Os.prefetch os asp ~site:Trace.no_site
                 ~urgent:false ~vpn:(seg.As.base_vpn + 8));
             ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + 8) ~write:false);
             Os.release_request os asp
               ~vpns:(Array.init 4 (fun i -> seg.As.base_vpn + i));
             Engine.delay ~cat:Account.Sleep (Time_ns.ms 100))));
  Engine.run engine;
  (match Engine.crashes engine with
  | [] -> ()
  | (name, e) :: _ ->
      Alcotest.failf "%s crashed: %s" name (Printexc.to_string e));
  trace

let test_live_simulation_emits_expected_kinds () =
  let trace = traced_run () in
  check_bool "events recorded" true (Trace.length trace > 0);
  check_int "ring did not overflow" 0 (Trace.dropped trace);
  let tally = Trace.counts trace in
  let count name =
    match List.assoc_opt name tally with Some n -> n | None -> 0
  in
  check_int "hard faults" 8 (count "hard_fault");
  check_int "prefetch issued" 1 (count "prefetch_issued");
  check_int "validation fault" 1 (count "validation_fault");
  check_int "release request batches" 1 (count "release_requested");
  check_int "releaser freed" 4 (count "releaser_free");
  check_bool "daemon sampled free depth" true (count "free_depth" > 0)

let test_live_timestamps_monotonic () =
  let trace = traced_run () in
  let last = ref Time_ns.zero in
  let ok = ref true in
  Trace.iter trace (fun ~time ~stream:_ _ev ->
      if time < !last then ok := false;
      last := time);
  check_bool "timestamps nondecreasing oldest-first" true !ok

let test_disabled_trace_counts_unchanged () =
  (* The same workload with tracing off must behave identically; spot-check
     the VM stats that the traced run asserted on. *)
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let os = Os.create ~config:small_config ~engine () in
  let hard = ref (-1) in
  ignore
    (Engine.spawn engine ~name:"main" (fun () ->
         Fun.protect ~finally:Engine.stop (fun () ->
             let asp = Os.new_process os ~name:"app" in
             let seg =
               Os.map_segment os asp ~name:"d" ~bytes:(16 * 16384) ~on_swap:true
             in
             for i = 0 to 7 do
               ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
             done;
             ignore (Os.prefetch os asp ~site:Trace.no_site
                 ~urgent:false ~vpn:(seg.As.base_vpn + 8));
             ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + 8) ~write:false);
             Os.release_request os asp
               ~vpns:(Array.init 4 (fun i -> seg.As.base_vpn + i));
             Engine.delay ~cat:Account.Sleep (Time_ns.ms 100);
             hard := asp.As.stats.Vm.Vm_stats.hard_faults)));
  Engine.run engine;
  check_bool "default bus is the null bus" false (Obs.on (Os.obs os));
  check_int "stats identical to the traced run" 8 !hard

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_chrome_export_golden () =
  let t = Trace.create ~capacity:16 () in
  Trace.set_stream_name t 0 "app";
  Trace.set_stream_name t Trace.kernel_stream "kernel";
  Trace.emit t ~time:(Time_ns.us 1) ~stream:0 (Trace.Hard_fault { vpn = 5 });
  Trace.emit t ~time:(Time_ns.us 2) ~stream:0 (Trace.Phase_begin { name = "main" });
  Trace.emit t ~time:(Time_ns.us 3) ~stream:Trace.kernel_stream
    (Trace.Free_depth { pages = 12 });
  Trace.emit t ~time:(Time_ns.us 4) ~stream:0 (Trace.Phase_end { name = "main" });
  let json = Trace_export.to_chrome_json t in
  check_contains "document shape" "{\"traceEvents\":[" json;
  check_contains "thread metadata" "\"thread_name\"" json;
  check_contains "stream label" "\"app\"" json;
  check_contains "instant event" "\"name\":\"hard_fault\",\"ph\":\"i\"" json;
  check_contains "instant scope" "\"s\":\"t\"" json;
  check_contains "event payload" "\"vpn\":5" json;
  check_contains "phase begin" "\"ph\":\"B\"" json;
  check_contains "phase end" "\"ph\":\"E\"" json;
  check_contains "counter track" "\"name\":\"free_depth\",\"ph\":\"C\"" json;
  (* simulated ns render as the format's microseconds *)
  check_contains "timestamp in us" "\"ts\":1.000" json;
  check_contains "dropped metadata" "\"metadata\":{\"dropped_events\":0}" json

let test_chrome_export_escapes_strings () =
  (* Satellite: args and names with quotes, backslashes and control
     characters must round through the shared escaper, not corrupt the
     document. *)
  let t = Trace.create ~capacity:8 () in
  Trace.set_stream_name t 0 "app \"main\"\\loop";
  Trace.emit t ~time:(Time_ns.us 1) ~stream:0
    (Trace.Phase_begin { name = "pha\"se\\one\r\n" });
  Trace.emit t ~time:(Time_ns.us 2) ~stream:0
    (Trace.Chaos_stall { who = "rel\teaser"; until = 7 });
  let json = Trace_export.to_chrome_json t in
  check_contains "escaped thread name" "app \\\"main\\\"\\\\loop" json;
  check_contains "escaped phase name" "pha\\\"se\\\\one\\r\\n" json;
  check_contains "escaped tab in arg" "rel\\teaser" json;
  (* the whole document must still parse as JSON *)
  (match Memhog_core.Metrics_io.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "export does not parse: %s" e);
  (* shared escaper: Metrics_io produces the identical escape sequences *)
  check_string "one escaper" (Memhog_core.Metrics_io.escape_string "a\"b\\c\r")
    "a\\\"b\\\\c\\r"

let test_chrome_export_strict_decimal_args () =
  (* "0x2a"-shaped strings must stay strings ([int_of_string_opt] would
     turn them into the number 42). *)
  Alcotest.(check bool) "hex stays string" false
    (contains ~sub:"\"who\":66"
       (let t = Trace.create ~capacity:4 () in
        Trace.emit t ~time:Time_ns.zero ~stream:0
          (Trace.Chaos_stall { who = "0x42"; until = 1 });
        Trace_export.to_chrome_json t))

let test_chrome_export_flow_events () =
  (* A full prefetch chain and a full release chain must each produce flow
     start/step/finish rows sharing one id. *)
  let t = Trace.create ~capacity:32 () in
  let e time ev = Trace.emit t ~time ~stream:4 ev in
  e (Time_ns.us 1) (Trace.Rt_prefetch_sent { vpn = 9; site = 2 });
  e (Time_ns.us 2) (Trace.Prefetch_issued { vpn = 9; site = 2 });
  e (Time_ns.us 3) (Trace.Prefetch_done { vpn = 9; site = 2; ns = 900 });
  e (Time_ns.us 4) (Trace.Validation_fault { vpn = 9 });
  e (Time_ns.us 5) (Trace.Rt_release_sent { vpn = 9; site = 3 });
  Trace.emit t ~time:(Time_ns.us 6) ~stream:Trace.releaser_stream
    (Trace.Releaser_free { vpn = 9; owner = 4; site = 3 });
  e (Time_ns.us 7) (Trace.Hard_fault { vpn = 9 });
  let json = Trace_export.to_chrome_json t in
  check_contains "prefetch flow starts" "\"name\":\"pf-site2\",\"cat\":\"flow\",\"ph\":\"s\"" json;
  check_contains "prefetch flow finishes" "\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":1" json;
  check_contains "release flow starts" "\"name\":\"rel-site3\",\"cat\":\"flow\",\"ph\":\"s\"" json;
  check_contains "release flow steps" "\"name\":\"rel-site3\",\"cat\":\"flow\",\"ph\":\"t\"" json;
  check_contains "release flow finish id" "\"ph\":\"f\",\"bp\":\"e\",\"id\":2" json

let test_chrome_export_live_parses_shape () =
  let trace = traced_run () in
  let json = Trace_export.to_chrome_json trace in
  check_contains "document shape" "{\"traceEvents\":[" json;
  check_contains "daemon lane named" "\"paging-daemon\"" json;
  check_contains "dropped metadata" "\"metadata\":{\"dropped_events\":" json;
  check_bool "document closed" true
    (String.length json >= 3 && String.sub json (String.length json - 3) 3 = "}}\n")

let test_series_csv () =
  let tl = Telemetry.create () in
  let free = ref 0.0 and rss = ref 0.0 in
  Telemetry.register_gauge tl ~name:"free" (fun () -> !free);
  Telemetry.register_gauge tl ~name:"rss" (fun () -> !rss);
  free := 32.0;
  rss := 7.0;
  Telemetry.scrape tl ~time:(Time_ns.us 1);
  free := 16.5;
  Telemetry.scrape tl ~time:(Time_ns.us 2);
  let csv = Telemetry.to_csv tl in
  check_string "csv"
    "series,time_ns,value\n\
     free,1000,32\n\
     free,2000,16.5\n\
     rss,1000,7\n\
     rss,2000,7\n"
    csv

let test_summary_mentions_tallies () =
  let trace = traced_run () in
  let s = Trace_export.summary trace in
  check_contains "tally line" "hard_fault" s;
  check_contains "retention" "retained" s

let () =
  Alcotest.run "memhog_trace"
    [
      ( "ring",
        [
          Alcotest.test_case "retention and overflow" `Quick
            test_ring_retention_and_overflow;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_traces_record_nothing;
          Alcotest.test_case "stream names and tallies" `Quick
            test_stream_names_and_tallies;
          Alcotest.test_case "event names and args" `Quick
            test_event_names_and_args;
          QCheck_alcotest.to_alcotest prop_ring_keeps_last_capacity;
        ] );
      ( "live",
        [
          Alcotest.test_case "expected event kinds" `Quick
            test_live_simulation_emits_expected_kinds;
          Alcotest.test_case "monotonic timestamps" `Quick
            test_live_timestamps_monotonic;
          Alcotest.test_case "disabled tracing changes nothing" `Quick
            test_disabled_trace_counts_unchanged;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome golden" `Quick test_chrome_export_golden;
          Alcotest.test_case "chrome escaping" `Quick
            test_chrome_export_escapes_strings;
          Alcotest.test_case "strict decimal args" `Quick
            test_chrome_export_strict_decimal_args;
          Alcotest.test_case "flow events" `Quick
            test_chrome_export_flow_events;
          Alcotest.test_case "chrome live shape" `Quick
            test_chrome_export_live_parses_shape;
          Alcotest.test_case "series csv" `Quick test_series_csv;
          Alcotest.test_case "summary" `Quick test_summary_mentions_tallies;
        ] );
    ]
