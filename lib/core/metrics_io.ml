(* Hand-rolled JSON: the repo deliberately keeps its dependency set to the
   toolchain basics, and the writer must be canonical anyway (fixed key
   order, fixed number formatting) so the zero-tolerance regression gate
   can demand byte-identical files. *)

type json =
  | Null
  | Bool of bool
  | Num of float * string
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let num_of_int i = Num (float_of_int i, string_of_int i)

let float_lexeme f =
  if not (Float.is_finite f) then "0.0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let num_of_float f =
  let f = if Float.is_finite f then f else 0.0 in
  Num (f, float_lexeme f)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let escape_string = Json_str.escape
let add_escaped = Json_str.add_escaped

let is_scalar = function
  | Null | Bool _ | Num _ | Str _ -> true
  | Arr _ | Obj _ -> false

(* Arrays whose elements are scalars (or scalar-only arrays, like histogram
   buckets) print on one line; objects and mixed arrays go multi-line. *)
let is_compact = function
  | v when is_scalar v -> true
  | Arr items -> List.for_all is_scalar items
  | _ -> false

let rec write buf indent v =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num (_, lex) -> Buffer.add_string buf lex
  | Str s -> add_escaped buf s
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items when List.for_all is_compact items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf indent item)
        items;
      Buffer.add_char buf ']'
  | Arr items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          write buf (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          add_escaped buf k;
          Buffer.add_string buf ": ";
          write buf (indent + 2) v)
        kvs;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  write buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; incr pos
          | '\\' -> Buffer.add_char buf '\\'; incr pos
          | '/' -> Buffer.add_char buf '/'; incr pos
          | 'b' -> Buffer.add_char buf '\b'; incr pos
          | 'f' -> Buffer.add_char buf '\012'; incr pos
          | 'n' -> Buffer.add_char buf '\n'; incr pos
          | 'r' -> Buffer.add_char buf '\r'; incr pos
          | 't' -> Buffer.add_char buf '\t'; incr pos
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let cp =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* UTF-8 encode the code point (no surrogate-pair joining:
                 the writer never emits non-BMP characters). *)
              if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
              else if cp < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
              end;
              pos := !pos + 5
          | c -> fail (Printf.sprintf "bad escape \\%C" c));
          go ()
      | c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
      if !pos = d0 then fail "expected digit"
    in
    if peek () = Some '-' then incr pos;
    digits ();
    if peek () = Some '.' then begin incr pos; digits () end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let lex = String.sub s start (!pos - start) in
    Num (float_of_string lex, lex)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; Obj [] end
        else begin
          let kvs = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            kvs := (k, v) :: !kvs;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !kvs)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; Arr [] end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elements ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Metrics document                                                    *)
(* ------------------------------------------------------------------ *)

let schema = "memhog-metrics"

(* v2: cells gained "governor" and "chaos" objects (null when absent).
   v3: cells gained "trace_dropped" and the page-lifecycle "ledger" object
   (wasted-work taxonomy + per-directive-site efficacy table).
   v4: histograms gained "p999_ns" and cells gained the "serving" object
   (open-loop server cells: offered load, SLO attainment, response
   percentiles; null for batch cells).
   v5: cells gained the "blame" object (serve cells: per-request
   response-time decomposition — additive queue/index/value/cpu/compute
   component histograms, percentile-band blame table, prefetch race and
   demand-disk attribution; null for batch cells).
   v6: cells gained the always-present "disk" object (swap-volume reads,
   writes, deadline misses and demand-over-background bypasses — the
   timeout counter previously surfaced only inside chaos cells) and the
   "tiers" object (tiered-store cells: per-tier traffic rows, cross-tier
   rescues, breaker state, placement and compression amplification; null
   without a --tiers spec); the "serving" object gained the recovery mark
   and its post-mark SLO tally.
   v7: the ad-hoc "series" array became the always-present "telemetry"
   object — the unified registry's close-out: scrape count, per-series
   aggregates (name, kind, samples, last/min/mean/max; the legacy trio
   plus a "trace-dropped" counter, and the full VM/disk/tiers/runtime/
   server probe set for cells run with telemetry on) and the alert-rule
   timeline (time, rule, fire|clear, signal value).
   v8: only keys added, so that the document carries every number
   [memhog run] prints.  Cells gained "soft_faults_daemon" and
   "validation_faults" (Figure 8), "global" (the system-wide VM counters,
   Table 3's daemon activations and steals), "runtime" (the run-time
   layer's filter and buffer counters; null for O) and "interactive" (the
   task's alone response and hard faults per sweep, Figure 10c; null
   without it); the "chaos" object gained the far-link counters. *)
let schema_version = 8

(* Every emitter below reads its numbers straight from the simulation's own
   records; a new per-cell number needs only a line here.  Where a key's
   meaning is not plain from its source field, the comment at its emitter
   says what it holds. *)

module E = Experiment
module Histogram = Memhog_sim.Histogram
module VS = Memhog_vm.Vm_stats
module Runtime = Memhog_runtime.Runtime
module Server = Memhog_exec.Server
module Reqtrace = Memhog_sim.Reqtrace

let opt f = function None -> Null | Some v -> f v

let breakdown_json (b : E.breakdown) =
  Obj
    [
      ("user_ns", num_of_int b.E.b_user);
      ("system_ns", num_of_int b.E.b_system);
      ("io_stall_ns", num_of_int b.E.b_io_stall);
      ("resource_stall_ns", num_of_int b.E.b_resource_stall);
    ]

(* An empty histogram has min and max 0 and mean 0.0.  All four
   percentiles come from the same clamped bucket walk.  "buckets" holds
   (lower bound, count) for each non-empty bucket, ascending: enough to
   rebuild the histogram with [Histogram.restore]. *)
let hist_json h =
  Obj
    [
      ("count", num_of_int (Histogram.count h));
      ("sum_ns", num_of_int (Histogram.sum h));
      ("min_ns", num_of_int (Option.value (Histogram.min_value h) ~default:0));
      ("max_ns", num_of_int (Option.value (Histogram.max_value h) ~default:0));
      ("mean_ns", num_of_float (Histogram.mean h));
      ("p50_ns", num_of_int (Histogram.percentile h 50.0));
      ("p90_ns", num_of_int (Histogram.percentile h 90.0));
      ("p99_ns", num_of_int (Histogram.percentile h 99.0));
      ("p999_ns", num_of_int (Histogram.percentile h 99.9));
      ( "buckets",
        Arr
          (List.map
             (fun (lo, c) -> Arr [ num_of_int lo; num_of_int c ])
             (Histogram.to_alist h)) );
    ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Figure 9 plus the run-time layer's filters.  "requested" counts release
   requests reaching the OS; "skipped" those re-referenced before the
   releaser acted; "stale_dropped" run-time buffer entries invalidated
   before draining (0 for O, which has no run-time layer).  A rescue ratio
   is rescued / freed, 0.0 when nothing was freed. *)
let release_json (r : E.result) =
  let s = r.E.r_app_stats in
  Obj
    [
      ("requested", num_of_int s.VS.releases_requested);
      ("skipped", num_of_int s.VS.releases_skipped);
      ("freed_daemon", num_of_int s.VS.freed_by_daemon);
      ("freed_releaser", num_of_int s.VS.freed_by_releaser);
      ("rescued_daemon", num_of_int s.VS.rescued_daemon);
      ("rescued_releaser", num_of_int s.VS.rescued_releaser);
      ("lost_daemon", num_of_int s.VS.lost_daemon);
      ("lost_releaser", num_of_int s.VS.lost_releaser);
      ( "stale_dropped",
        num_of_int
          (match r.E.r_runtime with
          | Some rt -> rt.Runtime.rt_release_stale_dropped
          | None -> 0) );
      ( "rescue_ratio_daemon",
        num_of_float (ratio s.VS.rescued_daemon s.VS.freed_by_daemon) );
      ( "rescue_ratio_releaser",
        num_of_float (ratio s.VS.rescued_releaser s.VS.freed_by_releaser) );
    ]

(* The telemetry registry's close-out: each series' all-time aggregates in
   registration order (all 0.0 for an empty series), then the alert-rule
   transitions in time order, each with the rule's signal at the
   transition. *)
let telemetry_json tl =
  let module T = Memhog_sim.Telemetry in
  let series (s : T.series_summary) =
    Obj
      [
        ("name", Str s.T.ts_name);
        ("kind", Str (T.kind_name s.T.ts_kind));
        ("samples", num_of_int s.T.ts_samples);
        ("last", num_of_float s.T.ts_last);
        ("min", num_of_float s.T.ts_min);
        ("mean", num_of_float s.T.ts_mean);
        ("max", num_of_float s.T.ts_max);
      ]
  in
  let alert (a : T.alert) =
    Obj
      [
        ("time_ns", num_of_int a.T.al_time);
        ("rule", Str a.T.al_rule);
        ("event", Str (if a.T.al_fired then "fire" else "clear"));
        ("value", num_of_float a.T.al_value);
      ]
  in
  Obj
    [
      ("scrapes", num_of_int (T.scrapes tl));
      ("series", Arr (List.map series (T.summaries tl)));
      ("alerts", Arr (List.map alert (T.alerts tl)));
    ]

(* The run-time layer's filters and buffer (section 2.4).  Requests come
   from the application; "prefetch_filtered" drops pages already resident,
   "release_filtered_same" repeats of the tag's previous page and
   "release_filtered_bitmap" pages no longer resident.  "release_issued"
   reached the OS, "release_buffered" waited in the priority buffer, and
   "buffer_drains" counts the buffer's drain decisions. *)
let runtime_json (rt : Runtime.stats) =
  Obj
    [
      ("prefetch_requests", num_of_int rt.Runtime.rt_prefetch_requests);
      ("prefetch_filtered", num_of_int rt.Runtime.rt_prefetch_filtered);
      ("prefetch_enqueued", num_of_int rt.Runtime.rt_prefetch_enqueued);
      ("release_requests", num_of_int rt.Runtime.rt_release_requests);
      ("release_filtered_same", num_of_int rt.Runtime.rt_release_filtered_same);
      ( "release_filtered_bitmap",
        num_of_int rt.Runtime.rt_release_filtered_bitmap );
      ("release_issued", num_of_int rt.Runtime.rt_release_issued);
      ("release_buffered", num_of_int rt.Runtime.rt_release_buffered);
      ("buffer_drains", num_of_int rt.Runtime.rt_buffer_drains);
    ]

(* The interactive task beside the hog: its warm response with the
   machine to itself, and its hard faults per sweep, warm-up skipped (null
   with no sweep past the warm-up).  The mean response is
   "response_hist"'s "mean_ns". *)
let interactive_json (i : E.interactive_summary) =
  Obj
    [
      ("alone_ns", num_of_int i.E.is_alone_response);
      ("avg_hard_faults", opt num_of_float i.E.is_avg_hard_faults);
    ]

(* The degradation governor at the end of the run: "level" 0..2,
   transitions in each direction, hints swallowed at level 2 (directives
   off) and its OS-side prefetch signal.  All zeros with the governor
   off. *)
let governor_json (rt : Runtime.stats) =
  Obj
    [
      ("level", num_of_int rt.Runtime.rt_gov_level);
      ("degrades", num_of_int rt.Runtime.rt_gov_degrades);
      ("recoveries", num_of_int rt.Runtime.rt_gov_recoveries);
      ("suppressed", num_of_int rt.Runtime.rt_gov_suppressed);
      ("prefetch_os_done", num_of_int rt.Runtime.rt_prefetch_os_done);
      ("prefetch_os_dropped", num_of_int rt.Runtime.rt_prefetch_os_dropped);
    ]

(* Injected-fault counters.  "disk_timeouts" is the disks' own deadline
   count, the "disk" object's "timeouts". *)
let chaos_json ~disk_timeouts (cs : Memhog_sim.Chaos.stats) =
  let module C = Memhog_sim.Chaos in
  Obj
    [
      ("disk_faults", num_of_int cs.C.disk_faults);
      ("disk_retries", num_of_int cs.C.disk_retries);
      ("disk_backoff_ns", num_of_int cs.C.disk_backoff_ns);
      ("disk_timeouts", num_of_int disk_timeouts);
      ("slow_requests", num_of_int cs.C.slow_requests);
      ("releaser_stall_ns", num_of_int cs.C.releaser_stall_ns);
      ("daemon_stall_ns", num_of_int cs.C.daemon_stall_ns);
      ("directives_dropped", num_of_int cs.C.directives_dropped);
      ("pressure_spikes", num_of_int cs.C.pressure_spikes);
      ("pressure_pages", num_of_int cs.C.pressure_pages);
      ("net_partition_drops", num_of_int cs.C.net_partition_drops);
      ("net_slow_requests", num_of_int cs.C.net_slow_requests);
      ("net_jitter_ns", num_of_int cs.C.net_jitter_ns);
    ]

(* Swap-volume traffic summed over the stripe's disks.  "timeouts" counts
   requests whose total latency passed the per-request deadline;
   "bypasses" demand requests that overtook queued background work at the
   arm; "busy_ns" is summed arm-busy time. *)
let disk_json (r : E.result) =
  Obj
    [
      ("reads", num_of_int r.E.r_swap_reads);
      ("writes", num_of_int r.E.r_swap_writes);
      ("timeouts", num_of_int r.E.r_disk_timeouts);
      ("bypasses", num_of_int r.E.r_disk_bypasses);
      ("busy_ns", num_of_int r.E.r_disk_busy);
    ]

(* One row per tier in tier-id order, disk always present.  Only far moves
   "timeouts" (RPC attempts aborted at the deadline) and "retries"; only
   zram moves "rejects" (stores refused at capacity).  "rescues" counts
   fetches served from the durable swap copy after the fast tier failed or
   was open; "breaker_state" is 0 closed, 1 half-open, 2 open; "placed"
   counts pages resident in a fast tier; "zram_amplification" is logical
   bytes per physical byte, 0.0 without a zram tier or when it is empty;
   "tier_buffered" counts releases the run-time layer kept because the far
   breaker was open. *)
let tiers_json ~tier_buffered (s : Memhog_vm.Tiers.summary) =
  let module T = Memhog_vm.Tiers in
  let row (t : T.tier_summary) =
    Obj
      [
        ("tier", Str (T.tier_name t.T.ts_tier));
        ("reads", num_of_int t.T.ts_reads);
        ("writes", num_of_int t.T.ts_writes);
        ("timeouts", num_of_int t.T.ts_timeouts);
        ("retries", num_of_int t.T.ts_retries);
        ("rejects", num_of_int t.T.ts_rejects);
        ("failovers", num_of_int t.T.ts_failovers);
        ("breaker_transitions", num_of_int t.T.ts_breaker_transitions);
      ]
  in
  Obj
    [
      ("tiers", Arr (List.map row s.T.s_tiers));
      ("rescues", num_of_int s.T.s_rescues);
      ("breaker_state", num_of_int s.T.s_breaker_state);
      ("placed", num_of_int s.T.s_placed);
      ("zram_amplification", num_of_float s.T.s_zram_amplification);
      ("tier_buffered", num_of_int tier_buffered);
    ]

(* The page-lifecycle ledger: the wasted-work taxonomy, then one efficacy
   row per directive site, joined to the compiled program's static site
   table for its kind, description and priority. *)
let ledger_json (r : E.result) =
  let module L = Memhog_sim.Ledger in
  let module P = Memhog_compiler.Pir in
  let l = r.E.r_ledger in
  let label tag =
    List.find_opt (fun (si : P.site_info) -> si.P.si_tag = tag) r.E.r_sites
  in
  let row (sr : L.site_row) =
    let kind, desc, static_priority =
      match label sr.L.sr_site with
      | Some si ->
          ( (match si.P.si_kind with
            | P.S_prefetch -> "prefetch"
            | P.S_release -> "release"),
            si.P.si_desc,
            si.P.si_priority )
      | None -> ("unattributed", "", 0)
    in
    Obj
      [
        ("site", num_of_int sr.L.sr_site);
        ("kind", Str kind);
        ("desc", Str desc);
        ("static_priority", num_of_int static_priority);
        ("pf_sent", num_of_int sr.L.sr_pf_sent);
        ("pf_issued", num_of_int sr.L.sr_pf_issued);
        ("pf_dropped", num_of_int sr.L.sr_pf_dropped);
        ("pf_raced", num_of_int sr.L.sr_pf_raced);
        ("pf_done", num_of_int sr.L.sr_pf_done);
        ("pf_referenced", num_of_int sr.L.sr_pf_referenced);
        ("pf_useless", num_of_int sr.L.sr_pf_useless);
        ("pf_late", num_of_int sr.L.sr_pf_late);
        ("pf_saved_ns", num_of_int sr.L.sr_pf_saved_ns);
        ("rel_hints", num_of_int sr.L.sr_rel_hints);
        ("rel_filtered", num_of_int sr.L.sr_rel_filtered);
        ("rel_buffered", num_of_int sr.L.sr_rel_buffered);
        ("rel_stale", num_of_int sr.L.sr_rel_stale);
        ("rel_sent", num_of_int sr.L.sr_rel_sent);
        ("rel_skipped", num_of_int sr.L.sr_rel_skipped);
        ("rel_freed", num_of_int sr.L.sr_rel_freed);
        ("rel_rescued", num_of_int sr.L.sr_rel_rescued);
        ("rel_refaulted", num_of_int sr.L.sr_rel_refaulted);
        ("rel_reused", num_of_int sr.L.sr_rel_reused);
        ("rel_unreclaimed", num_of_int sr.L.sr_rel_unreclaimed);
        ("priority_mean", num_of_float (L.priority_mean sr));
        ("refault_pct", num_of_float (L.refault_pct sr));
      ]
  in
  Obj
    [
      ("pages_tracked", num_of_int l.L.ls_pages_tracked);
      ("useless_prefetches", num_of_int l.L.ls_useless_prefetches);
      ("late_prefetches", num_of_int l.L.ls_late_prefetches);
      ("early_rescued", num_of_int l.L.ls_early_rescued);
      ("early_refaulted", num_of_int l.L.ls_early_refaulted);
      ("useful_releases", num_of_int l.L.ls_useful_releases);
      ("unnecessary_releases", num_of_int l.L.ls_unnecessary_releases);
      ("hard_faults", num_of_int l.L.ls_hard_faults);
      ("soft_faults", num_of_int l.L.ls_soft_faults);
      ("validation_faults", num_of_int l.L.ls_validation_faults);
      ("zero_fills", num_of_int l.L.ls_zero_fills);
      ("rescues", num_of_int l.L.ls_rescues);
      ("prefetches_issued", num_of_int l.L.ls_prefetches_issued);
      ("prefetches_dropped", num_of_int l.L.ls_prefetches_dropped);
      ("releases_freed", num_of_int l.L.ls_releases_freed);
      ("releases_skipped", num_of_int l.L.ls_releases_skipped);
      ("sites", Arr (List.map row l.L.ls_sites));
    ]

(* The open-loop server's close-out.  Responses are measured from arrival,
   so queueing under memory pressure is charged to the request.
   "recorded" is completions minus warm-up skips; "slo_attainment" is
   slo_ok / recorded, 0.0 when nothing was recorded (a starved cell
   attained nothing).  "mark_ns" is the recovery mark as an offset past
   the window start, null when unset; the "post_" keys tally requests
   arriving after it, and "post_attainment" is 0.0 without a mark. *)
let serving_json (s : Server.summary) =
  Obj
    [
      ("offered_rps", num_of_float s.Server.sm_offered_rps);
      ("duration_ns", num_of_int s.Server.sm_duration);
      ("slo_ns", num_of_int s.Server.sm_slo);
      ("arrived", num_of_int s.Server.sm_arrived);
      ("completed", num_of_int s.Server.sm_completed);
      ("recorded", num_of_int s.Server.sm_recorded);
      ("max_queue", num_of_int s.Server.sm_max_queue);
      ("slo_ok", num_of_int s.Server.sm_slo_ok);
      ("slo_attainment", num_of_float (Server.slo_attainment s));
      ("mark_ns", opt num_of_int s.Server.sm_mark);
      ("post_recorded", num_of_int s.Server.sm_post_recorded);
      ("post_slo_ok", num_of_int s.Server.sm_post_slo_ok);
      ("post_attainment", num_of_float (Server.post_attainment s));
      ("response_hist", hist_json s.Server.sm_hist);
    ]

(* Per-request blame.  The component histograms cover every recorded
   request.  The bands fold the reservoir sample ("sampled" of
   "committed", at most "cap") at the p99 and p999 boundaries into body
   (< p99), tail and deep (>= p999); within a band the five component sums
   add up to "response_ns" exactly.  "pf_slack_hist" holds, per hidden
   prefetch, touch time minus (issue + I/O span); "pf_lost" counts touches
   that hard-faulted despite a prefetch; "bypasses", "disk_queue_ns" and
   "disk_service_ns" attribute demand arm traffic; "transit_ns" sums waits
   behind pages already in transit. *)
let blame_json (s : Reqtrace.summary) =
  let band (b : Reqtrace.band) =
    Obj
      [
        ("band", Str b.Reqtrace.bd_label);
        ("count", num_of_int b.Reqtrace.bd_count);
        ("queue_ns", num_of_int b.Reqtrace.bd_queue);
        ("index_ns", num_of_int b.Reqtrace.bd_index);
        ("value_ns", num_of_int b.Reqtrace.bd_value);
        ("cpu_ns", num_of_int b.Reqtrace.bd_cpu);
        ("compute_ns", num_of_int b.Reqtrace.bd_compute);
        ("response_ns", num_of_int b.Reqtrace.bd_response);
      ]
  in
  Obj
    [
      ("committed", num_of_int s.Reqtrace.su_committed);
      ("sampled", num_of_int s.Reqtrace.su_sampled);
      ("cap", num_of_int s.Reqtrace.su_cap);
      ("p50_ns", num_of_int s.Reqtrace.su_p50);
      ("p99_ns", num_of_int s.Reqtrace.su_p99);
      ("p999_ns", num_of_int s.Reqtrace.su_p999);
      ("bands", Arr (List.map band s.Reqtrace.su_bands));
      ("response_hist", hist_json s.Reqtrace.su_response);
      ("queue_hist", hist_json s.Reqtrace.su_queue);
      ("index_hist", hist_json s.Reqtrace.su_index);
      ("value_hist", hist_json s.Reqtrace.su_value);
      ("cpu_hist", hist_json s.Reqtrace.su_cpu);
      ("compute_hist", hist_json s.Reqtrace.su_compute);
      ("pf_slack_hist", hist_json s.Reqtrace.su_pf_slack);
      ("pf_hidden", num_of_int s.Reqtrace.su_pf_hidden);
      ("pf_lost", num_of_int s.Reqtrace.su_pf_lost);
      ("bypasses", num_of_int s.Reqtrace.su_bypasses);
      ("disk_queue_ns", num_of_int s.Reqtrace.su_disk_queue);
      ("disk_service_ns", num_of_int s.Reqtrace.su_disk_service);
      ("transit_ns", num_of_int s.Reqtrace.su_transit);
    ]

let global_json (g : VS.global) =
  Obj
    [
      ("daemon_activations", num_of_int g.VS.daemon_activations);
      ("daemon_pages_stolen", num_of_int g.VS.daemon_pages_stolen);
      ("daemon_frames_scanned", num_of_int g.VS.daemon_frames_scanned);
      ("daemon_invalidations", num_of_int g.VS.daemon_invalidations);
      ("releaser_batches", num_of_int g.VS.releaser_batches);
      ("releaser_pages_freed", num_of_int g.VS.releaser_pages_freed);
      ("allocations", num_of_int g.VS.allocations);
      ("allocation_waits", num_of_int g.VS.allocation_waits);
    ]

(* Optional objects are null when absent: "interactive" without the
   interactive task, "runtime" and "governor" for O (no run-time layer;
   every other variant carries them, even with the governor off), "chaos"
   without a fault plan, "tiers" without a tiers spec, "serving" and
   "blame" for batch cells. *)
let cell_json (r : E.result) =
  Obj
    [
      ("workload", Str r.E.r_workload);
      ("variant", Str (E.variant_name r.E.r_variant));
      ("elapsed_ns", num_of_int r.E.r_elapsed);
      ("iterations", num_of_int r.E.r_iterations);
      ("app_breakdown", breakdown_json r.E.r_breakdown);
      ("interactive_breakdown", opt breakdown_json r.E.r_inter_breakdown);
      ("fault_hist", hist_json r.E.r_fault_hist);
      ("prefetch_hist", hist_json r.E.r_prefetch_hist);
      (* interactive per-sweep response times, warm-up sweep skipped *)
      ("response_hist", opt hist_json r.E.r_response_hist);
      ("interactive", opt interactive_json r.E.r_interactive);
      ("release_accuracy", release_json r);
      ("telemetry", telemetry_json r.E.r_telemetry);
      ("hard_faults", num_of_int r.E.r_app_stats.VS.hard_faults);
      ("soft_faults", num_of_int r.E.r_app_stats.VS.soft_faults);
      (* soft faults after daemon reference-bit invalidations *)
      ( "soft_faults_daemon",
        num_of_int r.E.r_app_stats.VS.soft_faults_daemon );
      ("validation_faults", num_of_int r.E.r_app_stats.VS.validation_faults);
      ("global", global_json r.E.r_global);
      ("swap_reads", num_of_int r.E.r_swap_reads);
      ("swap_writes", num_of_int r.E.r_swap_writes);
      ("runtime", opt runtime_json r.E.r_runtime);
      ("governor", opt governor_json r.E.r_runtime);
      ( "chaos",
        opt (chaos_json ~disk_timeouts:r.E.r_disk_timeouts) r.E.r_chaos );
      ("disk", disk_json r);
      ( "tiers",
        opt
          (tiers_json
             ~tier_buffered:
               (match r.E.r_runtime with
               | Some rt -> rt.Runtime.rt_tier_buffered
               | None -> 0))
          r.E.r_tiers );
      (* events the trace ring overwrote (0 with tracing off): non-zero
         warns that the Chrome trace is truncated; the ledger, fed at the
         emit point, is not *)
      ("trace_dropped", num_of_int (Memhog_sim.Trace.dropped r.E.r_trace));
      ("ledger", ledger_json r);
      ("serving", opt serving_json r.E.r_serving);
      ( "blame",
        opt
          (fun _ -> blame_json (Reqtrace.summarize r.E.r_reqtrace))
          r.E.r_serving );
    ]

let proc_json (p : VS.proc) =
  Obj
    [
      ("hard_faults", num_of_int p.VS.hard_faults);
      ("soft_faults", num_of_int p.VS.soft_faults);
      ("soft_faults_daemon", num_of_int p.VS.soft_faults_daemon);
      ("validation_faults", num_of_int p.VS.validation_faults);
      ("zero_fills", num_of_int p.VS.zero_fills);
      ("rescued_daemon", num_of_int p.VS.rescued_daemon);
      ("rescued_releaser", num_of_int p.VS.rescued_releaser);
      ("lost_daemon", num_of_int p.VS.lost_daemon);
      ("lost_releaser", num_of_int p.VS.lost_releaser);
      ("freed_by_daemon", num_of_int p.VS.freed_by_daemon);
      ("freed_by_releaser", num_of_int p.VS.freed_by_releaser);
      ("releases_requested", num_of_int p.VS.releases_requested);
      ("releases_skipped", num_of_int p.VS.releases_skipped);
      ("prefetches_issued", num_of_int p.VS.prefetches_issued);
      ("prefetches_dropped", num_of_int p.VS.prefetches_dropped);
      ("prefetches_useless", num_of_int p.VS.prefetches_useless);
      ("prefetch_rescues", num_of_int p.VS.prefetch_rescues);
      ("writebacks", num_of_int p.VS.writebacks);
      ("invalidations", num_of_int p.VS.invalidations);
    ]

(* Aggregates over every cell: the app drivers' accounts, per-process and
   global counters summed, histograms merged. *)
let totals_json (results : E.result list) =
  let acct = Memhog_sim.Account.create () in
  let proc = VS.create_proc () in
  let global = VS.create_global () in
  let fault = Histogram.create () in
  let prefetch = Histogram.create () in
  let response = Histogram.create () in
  List.iter
    (fun (r : E.result) ->
      Memhog_sim.Account.add_to acct r.E.r_account;
      VS.add_proc proc r.E.r_app_stats;
      VS.add_global global r.E.r_global;
      Histogram.merge ~into:fault r.E.r_fault_hist;
      Histogram.merge ~into:prefetch r.E.r_prefetch_hist;
      Option.iter (Histogram.merge ~into:response) r.E.r_response_hist)
    results;
  Obj
    [
      ("cells", num_of_int (List.length results));
      ( "elapsed_ns",
        num_of_int
          (List.fold_left (fun acc (r : E.result) -> acc + r.E.r_elapsed) 0
             results) );
      ("breakdown", breakdown_json (E.breakdown_of_account acct));
      ("proc", proc_json proc);
      ("global", global_json global);
      ("fault_hist", hist_json fault);
      ("prefetch_hist", hist_json prefetch);
      ("response_hist", hist_json response);
    ]

let metrics_json (m : Metrics.t) =
  Obj
    [
      ("schema", Str schema);
      ("schema_version", num_of_int schema_version);
      ("label", Str m.Metrics.m_label);
      ("cells", Arr (List.map cell_json m.Metrics.m_results));
      ("totals", totals_json m.Metrics.m_results);
    ]

let write_file ~path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string (metrics_json m)))

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let read_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> Result.map_error (Printf.sprintf "%s: %s" path) (parse text)

let load_file ~path =
  match read_file ~path with
  | Error e -> Error e
  | Ok j -> (
      match (member "schema" j, member "schema_version" j) with
      | Some (Str s), Some (Num (v, _))
        when s = schema && int_of_float v = schema_version ->
          Ok j
      | Some (Str s), _ when s <> schema ->
          Error (Printf.sprintf "%s: not a %s file" path schema)
      | _, Some (Num (v, _)) when int_of_float v <> schema_version ->
          Error
            (Printf.sprintf "%s: schema_version %g, expected %d" path v
               schema_version)
      | _ -> Error (Printf.sprintf "%s: missing schema header" path))

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type diff = {
  d_path : string;
  d_expected : string;
  d_got : string;
  d_reason : string;
}

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"

let compare_json ~tolerance a b =
  if not (Float.is_finite tolerance && tolerance >= 0.0) then
    invalid_arg
      (Printf.sprintf
         "Metrics_io.compare_json: tolerance must be a finite percentage, at \
          least 0 (got %g)"
         tolerance);
  let diffs = ref [] in
  let report path ~expected ~got reason =
    diffs :=
      { d_path = path; d_expected = expected; d_got = got; d_reason = reason }
      :: !diffs
  in
  let rec go path a b =
    match (a, b) with
    | Null, Null -> ()
    | Bool x, Bool y ->
        if x <> y then
          report path ~expected:(string_of_bool x) ~got:(string_of_bool y)
            "boolean changed"
    | Str x, Str y ->
        if x <> y then
          report path
            ~expected:(Printf.sprintf "%S" x)
            ~got:(Printf.sprintf "%S" y)
            "string changed"
    | Num (x, lx), Num (y, ly) ->
        if tolerance = 0.0 then begin
          if lx <> ly then
            report path ~expected:lx ~got:ly "lexeme differs (tolerance 0%)"
        end
        else if x <> y then begin
          let denom = Float.max (Float.abs x) (Float.abs y) in
          let pct = Float.abs (x -. y) /. denom *. 100.0 in
          if pct > tolerance then
            report path ~expected:lx ~got:ly
              (Printf.sprintf "relative drift %.3f%% exceeds tolerance %.3f%%"
                 pct tolerance)
        end
    | Arr xs, Arr ys ->
        let lx = List.length xs and ly = List.length ys in
        if lx <> ly then
          report path
            ~expected:(Printf.sprintf "%d elements" lx)
            ~got:(Printf.sprintf "%d elements" ly)
            "array length changed"
        else
          List.iteri
            (fun i (x, y) -> go (Printf.sprintf "%s[%d]" path i) x y)
            (List.combine xs ys)
    | Obj xs, Obj ys ->
        let join p k = if p = "" then k else p ^ "." ^ k in
        List.iter
          (fun (k, x) ->
            match List.assoc_opt k ys with
            | Some y -> go (join path k) x y
            | None ->
                report (join path k) ~expected:(type_name x) ~got:"absent"
                  "missing in current")
          xs;
        List.iter
          (fun (k, y) ->
            if List.assoc_opt k xs = None then
              report (join path k) ~expected:"absent" ~got:(type_name y)
                "not in baseline")
          ys;
        (* The writer's key order is part of the bytes a baseline
           freezes, so the shared keys must also come in the same order. *)
        let shared kvs other =
          List.filter_map
            (fun (k, _) -> if List.mem_assoc k other then Some k else None)
            kvs
        in
        let kx = shared xs ys and ky = shared ys xs in
        if kx <> ky then
          report path ~expected:(String.concat ", " kx)
            ~got:(String.concat ", " ky) "key order changed"
    | x, y ->
        report path ~expected:(type_name x) ~got:(type_name y) "type changed"
  in
  go "" a b;
  List.rev !diffs

let pp_diffs ?(limit = 8) fmt diffs =
  let total = List.length diffs in
  let shown = if limit <= 0 then diffs else List.filteri (fun i _ -> i < limit) diffs in
  List.iter
    (fun d ->
      Format.fprintf fmt "  %s@,    expected %s@,    got      %s  (%s)@,"
        d.d_path d.d_expected d.d_got d.d_reason)
    shown;
  let rest = total - List.length shown in
  if rest > 0 then Format.fprintf fmt "  ... and %d more mismatch(es)@," rest

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let str_member k j = match member k j with Some (Str s) -> Some s | _ -> None

let int_member k j =
  match member k j with Some (Num (f, _)) -> Some (int_of_float f) | _ -> None

let float_member k j = match member k j with Some (Num (f, _)) -> Some f | _ -> None

(* Cell lookups for the tables: a missing member reads as [Null], and a
   missing number renders as "-". *)
let field k j = Option.value (member k j) ~default:Null
let items k j = match member k j with Some (Arr xs) -> xs | _ -> []
let has_obj k j = match member k j with Some (Obj _) -> true | _ -> false
let istr k j = Option.value (str_member k j) ~default:"-"
let icount k j =
  match int_member k j with Some i -> Report.count i | None -> "-"
let counts j keys = List.map (fun k -> icount k j) keys
let ins k j = match int_member k j with Some i -> Report.ns i | None -> "-"
let ifloat f k j = match float_member k j with Some x -> f x | None -> "-"

let hist_row label h =
  [
    label;
    icount "count" h;
    ins "p50_ns" h;
    ins "p90_ns" h;
    ins "p99_ns" h;
    ins "max_ns" h;
  ]

(* The fields shared by both site tables: the site's tag ("-" for work no
   site claimed) and its directive. *)
let site_cols r =
  [
    (match int_member "site" r with
    | Some s when s >= 0 -> string_of_int s
    | _ -> "-");
    (if istr "kind" r = "unattributed" then "(unattributed)"
     else istr "desc" r);
  ]

let positive k j = match int_member k j with Some v -> v > 0 | None -> false

(* A ledger row is a release site by its static kind; a row no site
   claimed counts as one if it saw release work. *)
let is_release_site r =
  match istr "kind" r with
  | "release" -> true
  | "prefetch" -> false
  | _ -> positive "rel_hints" r || positive "rel_freed" r

let render j =
  match member "cells" j with
  | Some (Arr cells) ->
      let label = Option.value (str_member "label" j) ~default:"" in
      let buf = Buffer.create 4096 in
      let fmt = Format.formatter_of_buffer buf in
      Format.pp_open_vbox fmt 0;
      Format.fprintf fmt "Metrics: %s (%d cells)@," label (List.length cells);
      let table ~title ~header rows =
        Format.fprintf fmt "@,";
        Report.table ~title ~header ~rows fmt ()
      in
      let cells_with k = List.filter (has_obj k) cells in
      (* A row is named by what tells its cell apart inside a grid: the
         hog, then its fast tiers (the tier rows other than disk), then
         the server's offered load. *)
      let run c =
        let fast =
          List.filter_map
            (fun r ->
              match str_member "tier" r with
              | Some "disk" | None -> None
              | t -> t)
            (items "tiers" (field "tiers" c))
        in
        Printf.sprintf "%s/%s%s%s" (istr "workload" c) (istr "variant" c)
          (if fast = [] then "" else " " ^ String.concat "+" fast)
          (match float_member "offered_rps" (field "serving" c) with
          | Some rps -> Printf.sprintf " @ %g rps" rps
          | None -> "")
      in
      table ~title:"Execution (out-of-core application)"
        ~header:
          [
            "run"; "user"; "system"; "io stall"; "res stall"; "elapsed";
            "iters"; "per pass";
          ]
        (List.map
           (fun c ->
             let b = field "app_breakdown" c in
             [
               run c;
               ins "user_ns" b;
               ins "system_ns" b;
               ins "io_stall_ns" b;
               ins "resource_stall_ns" b;
               ins "elapsed_ns" c;
               icount "iterations" c;
               (match
                  (int_member "elapsed_ns" c, int_member "iterations" c)
                with
               | Some e, Some n when n > 0 -> Report.ns (e / n)
               | _ -> "-");
             ])
           cells);
      table ~title:"Faults and paging daemon (Figures 8 and 10c, Table 3)"
        ~header:
          [
            "run"; "hard"; "soft"; "soft (daemon)"; "validations";
            "daemon runs"; "stolen"; "invalidations";
          ]
        (List.map
           (fun c ->
             (run c :: counts c
                [
                  "hard_faults"; "soft_faults"; "soft_faults_daemon";
                  "validation_faults";
                ])
             @ counts (field "global" c)
                 [
                   "daemon_activations"; "daemon_pages_stolen";
                   "daemon_invalidations";
                 ])
           cells);
      table ~title:"Demand-fault service time"
        ~header:[ "run"; "faults"; "p50"; "p90"; "p99"; "max" ]
        (List.map (fun c -> hist_row (run c) (field "fault_hist" c)) cells);
      table ~title:"Prefetch service time"
        ~header:[ "run"; "prefetches"; "p50"; "p90"; "p99"; "max" ]
        (List.map (fun c -> hist_row (run c) (field "prefetch_hist" c)) cells);
      let with_response = cells_with "response_hist" in
      if with_response <> [] then
        table ~title:"Interactive response (recorded sweeps, warm-up excluded)"
          ~header:
            [
              "run"; "sweeps"; "p50"; "p90"; "p99"; "max"; "mean"; "alone";
              "faults/sweep";
            ]
          (List.map
             (fun c ->
               let h = field "response_hist" c and i = field "interactive" c in
               hist_row (run c) h
               @ [
                   ifloat (fun m -> Report.ns (Float.to_int (Float.round m)))
                     "mean_ns" h;
                   ins "alone_ns" i;
                   ifloat Report.f1 "avg_hard_faults" i;
                 ])
             with_response);
      let with_serving = cells_with "serving" in
      if with_serving <> [] then begin
        table ~title:"Serving tail latency (open-loop, SLO from arrival)"
          ~header:
            [
              "run"; "offered"; "arrived"; "completed"; "recorded";
              "queue max"; "p50"; "p99"; "p999"; "max"; "SLO target"; "SLO";
              "SLO post-mark";
            ]
          (List.map
             (fun c ->
               let s = field "serving" c in
               let h = field "response_hist" s in
               [
                 run c;
                 ifloat
                   (fun f -> Printf.sprintf "%s rps" (Report.f1 f))
                   "offered_rps" s;
                 icount "arrived" s;
                 icount "completed" s;
                 icount "recorded" s;
                 icount "max_queue" s;
                 ins "p50_ns" h;
                 ins "p99_ns" h;
                 ins "p999_ns" h;
                 ins "max_ns" h;
                 ins "slo_ns" s;
                 ifloat Report.pct "slo_attainment" s;
                 (if int_member "mark_ns" s = None then "-"
                  else ifloat Report.pct "post_attainment" s);
               ])
             with_serving);
        (* A starved cell's 0% attainment is easy to misread as merely
           bad: it measured nothing. *)
        List.iter
          (fun c ->
            let s = field "serving" c in
            if int_member "recorded" s = Some 0 then
              Format.fprintf fmt
                "WARNING: %s recorded no responses (%s completed, none past \
                 warm-up): the server starved; its 0%% SLO attainment is \
                 vacuous, not measured.@,"
                (run c) (icount "completed" s))
          with_serving
      end;
      let with_blame = cells_with "blame" in
      if with_blame <> [] then begin
        table ~title:"Tail blame (mean per request, by percentile band)"
          ~header:
            [
              "run"; "band"; "reqs"; "queue"; "index"; "value"; "cpu wait";
              "compute"; "response";
            ]
          (List.concat_map
             (fun c ->
               List.map
                 (fun bd ->
                   let n =
                     max 1 (Option.value (int_member "count" bd) ~default:0)
                   in
                   let per k =
                     match int_member k bd with
                     | Some v -> Report.ns (v / n)
                     | None -> "-"
                   in
                   [
                     run c; istr "band" bd; icount "count" bd;
                     per "queue_ns"; per "index_ns"; per "value_ns";
                     per "cpu_ns"; per "compute_ns"; per "response_ns";
                   ])
                 (items "bands" (field "blame" c)))
             with_blame);
        table ~title:"Prefetch race and demand-disk attribution"
          ~header:
            [
              "run"; "sampled"; "pf hidden"; "pf lost"; "slack p50";
              "bypasses"; "arm queue"; "arm service"; "transit";
            ]
          (List.map
             (fun c ->
               let b = field "blame" c in
               [
                 run c;
                 Printf.sprintf "%s/%s" (icount "sampled" b)
                   (icount "committed" b);
                 icount "pf_hidden" b;
                 icount "pf_lost" b;
                 ins "p50_ns" (field "pf_slack_hist" b);
                 icount "bypasses" b;
                 ins "disk_queue_ns" b;
                 ins "disk_service_ns" b;
                 ins "transit_ns" b;
               ])
             with_blame);
        (* The bands past the body (p99 and beyond) summed, each component
           as a share of their summed response. *)
        table ~title:"Tail blame shares (p99 and beyond)"
          ~header:
            [
              "run"; "tail reqs"; "queue"; "index"; "value"; "cpu wait";
              "compute";
            ]
          (List.map
             (fun c ->
               let tail =
                 List.filter
                   (fun bd -> istr "band" bd <> "body")
                   (items "bands" (field "blame" c))
               in
               let sum k =
                 List.fold_left
                   (fun a bd -> a + Option.value (int_member k bd) ~default:0)
                   0 tail
               in
               let resp = sum "response_ns" in
               let share k =
                 if resp = 0 then "-"
                 else Report.pct (float_of_int (sum k) /. float_of_int resp)
               in
               [
                 run c;
                 Report.count (sum "count");
                 share "queue_ns";
                 share "index_ns";
                 share "value_ns";
                 share "cpu_ns";
                 share "compute_ns";
               ])
             with_blame)
      end;
      table ~title:"Release accuracy"
        ~header:
          [
            "run"; "requested"; "skipped"; "freed (d/r)"; "rescued (d/r)";
            "rescue ratio (d/r)"; "stale";
          ]
        (List.map
           (fun c ->
             let ra = field "release_accuracy" c in
             let pair show k1 k2 =
               Printf.sprintf "%s/%s" (show k1 ra) (show k2 ra)
             in
             [
               run c;
               icount "requested" ra;
               icount "skipped" ra;
               pair icount "freed_daemon" "freed_releaser";
               pair icount "rescued_daemon" "rescued_releaser";
               pair (ifloat Report.pct) "rescue_ratio_daemon"
                 "rescue_ratio_releaser";
               icount "stale_dropped" ra;
             ])
           cells);
      (* its stale drops are Release accuracy's "stale" column *)
      let with_runtime = cells_with "runtime" in
      if with_runtime <> [] then
        table ~title:"Run-time layer (requests, filters, buffer)"
          ~header:
            [
              "run"; "prefetch req"; "filtered"; "enqueued"; "release req";
              "same page"; "not resident"; "issued"; "buffered"; "drains";
            ]
          (List.map
             (fun c ->
               run c
               :: counts (field "runtime" c)
                    [
                      "prefetch_requests"; "prefetch_filtered";
                      "prefetch_enqueued"; "release_requests";
                      "release_filtered_same"; "release_filtered_bitmap";
                      "release_issued"; "release_buffered"; "buffer_drains";
                    ])
             with_runtime);
      let with_disk = cells_with "disk" in
      if with_disk <> [] then
        table ~title:"Swap volume (per-request deadline + arm classes)"
          ~header:[ "run"; "reads"; "writes"; "timeouts"; "bypasses"; "busy" ]
          (List.map
             (fun c ->
               let d = field "disk" c in
               [
                 run c;
                 icount "reads" d;
                 icount "writes" d;
                 icount "timeouts" d;
                 icount "bypasses" d;
                 ins "busy_ns" d;
               ])
             with_disk);
      let with_tiers = cells_with "tiers" in
      if with_tiers <> [] then begin
        table ~title:"Backing tiers (traffic + breaker)"
          ~header:
            [
              "run"; "tier"; "reads"; "writes"; "timeouts"; "retries";
              "rejects"; "failovers"; "breaker flips";
            ]
          (List.concat_map
             (fun c ->
               List.map
                 (fun r ->
                   [
                     run c;
                     istr "tier" r;
                     icount "reads" r;
                     icount "writes" r;
                     icount "timeouts" r;
                     icount "retries" r;
                     icount "rejects" r;
                     icount "failovers" r;
                     icount "breaker_transitions" r;
                   ])
                 (items "tiers" (field "tiers" c)))
             with_tiers);
        table ~title:"Tier routing (rescues + breaker close-out)"
          ~header:
            [
              "run"; "rescues"; "breaker"; "placed"; "zram ampl";
              "tier-buffered";
            ]
          (List.map
             (fun c ->
               let ti = field "tiers" c in
               [
                 run c;
                 icount "rescues" ti;
                 (match int_member "breaker_state" ti with
                 | Some 0 -> "closed"
                 | Some 1 -> "half-open"
                 | Some 2 -> "open"
                 | _ -> "-");
                 icount "placed" ti;
                 ifloat Report.ratio "zram_amplification" ti;
                 icount "tier_buffered" ti;
               ])
             with_tiers)
      end;
      let with_ledger = cells_with "ledger" in
      if with_ledger <> [] then begin
        table ~title:"Wasted work (page-lifecycle ledger)"
          ~header:
            [
              "run"; "pages"; "useless pf"; "late pf"; "early rel (resc/refault)";
              "useful rel"; "unnecessary rel"; "trace drops";
            ]
          (List.map
             (fun c ->
               let l = field "ledger" c in
               [
                 run c;
                 icount "pages_tracked" l;
                 icount "useless_prefetches" l;
                 icount "late_prefetches" l;
                 Printf.sprintf "%s/%s" (icount "early_rescued" l)
                   (icount "early_refaulted" l);
                 icount "useful_releases" l;
                 icount "unnecessary_releases" l;
                 icount "trace_dropped" c;
               ])
             with_ledger);
        let site_rows keep cols =
          List.concat_map
            (fun c ->
              List.filter_map
                (fun r ->
                  if keep r then Some ((run c :: site_cols r) @ cols r)
                  else None)
                (items "sites" (field "ledger" c)))
            with_ledger
        in
        let pf_rows =
          site_rows
            (fun r -> (not (is_release_site r)) && positive "pf_sent" r)
            (fun r ->
              counts r
                [
                  "pf_sent"; "pf_issued"; "pf_dropped"; "pf_raced"; "pf_done";
                  "pf_referenced"; "pf_useless"; "pf_late";
                ]
              @ [ ins "pf_saved_ns" r ])
        in
        if pf_rows <> [] then
          table ~title:"Prefetch sites"
            ~header:
              [
                "run"; "site"; "directive"; "sent"; "issued"; "dropped";
                "raced"; "done"; "refd"; "useless"; "late"; "latency saved";
              ]
            pf_rows;
        let rel_rows =
          site_rows is_release_site (fun r ->
              [
                (if istr "kind" r = "release" then icount "static_priority" r
                 else "-");
                ifloat Report.f1 "priority_mean" r;
              ]
              @ counts r
                  [
                    "rel_hints"; "rel_filtered"; "rel_buffered"; "rel_stale";
                    "rel_sent"; "rel_skipped"; "rel_freed"; "rel_rescued";
                    "rel_refaulted"; "rel_reused"; "rel_unreclaimed";
                  ]
              @ [ ifloat (fun f -> Report.pct (f /. 100.0)) "refault_pct" r ])
        in
        if rel_rows <> [] then
          table ~title:"Release sites (Eq. 2 priority vs observed refault rate)"
            ~header:
              [
                "run"; "site"; "directive"; "prio"; "mean"; "hints"; "filt";
                "buf"; "stale"; "sent"; "skip"; "freed"; "resc"; "refault";
                "reused"; "unrecl"; "refault%";
              ]
            rel_rows
      end;
      table ~title:"Telemetry (min / mean / max / last)"
        ~header:[ "run"; "series"; "kind"; "samples"; "min"; "mean"; "max"; "last" ]
        (List.concat_map
           (fun c ->
             List.map
               (fun s ->
                 let f k = ifloat Report.f1 k s in
                 [
                   run c; istr "name" s; istr "kind" s; icount "samples" s;
                   f "min"; f "mean"; f "max"; f "last";
                 ])
               (items "series" (field "telemetry" c)))
           cells);
      let alert_rows =
        List.concat_map
          (fun c ->
            List.map
              (fun a ->
                [
                  run c;
                  ins "time_ns" a;
                  istr "rule" a;
                  istr "event" a;
                  ifloat Report.f1 "value" a;
                ])
              (items "alerts" (field "telemetry" c)))
          cells
      in
      if alert_rows <> [] then
        table ~title:"Alert timeline"
          ~header:[ "run"; "time"; "rule"; "event"; "value" ]
          alert_rows;
      let with_chaos = cells_with "chaos" in
      if with_chaos <> [] then begin
        table ~title:"Fault injection"
          ~header:
            [
              "run"; "faults"; "retries"; "backoff"; "timeouts"; "slow";
              "stall (rel/dmn)"; "dropped"; "pressure"; "net drops";
              "net slow"; "net jitter";
            ]
          (List.map
             (fun c ->
               let ch = field "chaos" c in
               [
                 run c;
                 icount "disk_faults" ch;
                 icount "disk_retries" ch;
                 ins "disk_backoff_ns" ch;
                 icount "disk_timeouts" ch;
                 icount "slow_requests" ch;
                 Printf.sprintf "%s/%s" (ins "releaser_stall_ns" ch)
                   (ins "daemon_stall_ns" ch);
                 icount "directives_dropped" ch;
                 Printf.sprintf "%s spikes, %s pages"
                   (icount "pressure_spikes" ch)
                   (icount "pressure_pages" ch);
                 icount "net_partition_drops" ch;
                 icount "net_slow_requests" ch;
                 ins "net_jitter_ns" ch;
               ])
             with_chaos);
        table ~title:"Degradation governor"
          ~header:
            [
              "run"; "level"; "degrades"; "recoveries"; "suppressed";
              "os prefetch (done/dropped)";
            ]
          (List.filter_map
             (fun c ->
               match member "governor" c with
               | Some (Obj _ as g) ->
                   Some
                     [
                       run c;
                       icount "level" g;
                       icount "degrades" g;
                       icount "recoveries" g;
                       icount "suppressed" g;
                       Printf.sprintf "%s/%s"
                         (icount "prefetch_os_done" g)
                         (icount "prefetch_os_dropped" g);
                     ]
               | _ -> None)
             with_chaos)
      end;
      (* one cell's totals repeat its own rows *)
      (match member "totals" j with
      | Some t when List.length cells > 1 ->
          table ~title:"Totals (all cells)"
            ~header:[ ""; "count"; "p50"; "p90"; "p99"; "max" ]
            (List.filter_map
               (fun (label, key) ->
                 if has_obj key t then Some (hist_row label (field key t))
                 else None)
               [
                 ("demand faults", "fault_hist");
                 ("prefetches", "prefetch_hist");
                 ("interactive sweeps", "response_hist");
               ])
      | _ -> ());
      Format.pp_close_box fmt ();
      Format.pp_print_flush fmt ();
      Ok (Buffer.contents buf)
  | _ -> Error "metrics document has no \"cells\" array"
