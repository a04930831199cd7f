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
   timeline (time, rule, fire|clear, signal value). *)
let schema_version = 7

let breakdown_json (b : Experiment.breakdown) =
  Obj
    [
      ("user_ns", num_of_int b.Experiment.b_user);
      ("system_ns", num_of_int b.Experiment.b_system);
      ("io_stall_ns", num_of_int b.Experiment.b_io_stall);
      ("resource_stall_ns", num_of_int b.Experiment.b_resource_stall);
    ]

let hist_json (h : Metrics.hist_summary) =
  Obj
    [
      ("count", num_of_int h.Metrics.hs_count);
      ("sum_ns", num_of_int h.Metrics.hs_sum);
      ("min_ns", num_of_int h.Metrics.hs_min);
      ("max_ns", num_of_int h.Metrics.hs_max);
      ("mean_ns", num_of_float h.Metrics.hs_mean);
      ("p50_ns", num_of_int h.Metrics.hs_p50);
      ("p90_ns", num_of_int h.Metrics.hs_p90);
      ("p99_ns", num_of_int h.Metrics.hs_p99);
      ("p999_ns", num_of_int h.Metrics.hs_p999);
      ( "buckets",
        Arr
          (List.map
             (fun (lo, c) -> Arr [ num_of_int lo; num_of_int c ])
             h.Metrics.hs_buckets) );
    ]

let release_json (ra : Metrics.release_accuracy) =
  Obj
    [
      ("requested", num_of_int ra.Metrics.ra_requested);
      ("skipped", num_of_int ra.Metrics.ra_skipped);
      ("freed_daemon", num_of_int ra.Metrics.ra_freed_daemon);
      ("freed_releaser", num_of_int ra.Metrics.ra_freed_releaser);
      ("rescued_daemon", num_of_int ra.Metrics.ra_rescued_daemon);
      ("rescued_releaser", num_of_int ra.Metrics.ra_rescued_releaser);
      ("lost_daemon", num_of_int ra.Metrics.ra_lost_daemon);
      ("lost_releaser", num_of_int ra.Metrics.ra_lost_releaser);
      ("stale_dropped", num_of_int ra.Metrics.ra_stale_dropped);
      ("rescue_ratio_daemon", num_of_float ra.Metrics.ra_rescue_ratio_daemon);
      ( "rescue_ratio_releaser",
        num_of_float ra.Metrics.ra_rescue_ratio_releaser );
    ]

let tel_series_json (s : Metrics.tel_series) =
  Obj
    [
      ("name", Str s.Metrics.es_name);
      ("kind", Str s.Metrics.es_kind);
      ("samples", num_of_int s.Metrics.es_samples);
      ("last", num_of_float s.Metrics.es_last);
      ("min", num_of_float s.Metrics.es_min);
      ("mean", num_of_float s.Metrics.es_mean);
      ("max", num_of_float s.Metrics.es_max);
    ]

let tel_alert_json (a : Metrics.tel_alert) =
  Obj
    [
      ("time_ns", num_of_int a.Metrics.ea_time_ns);
      ("rule", Str a.Metrics.ea_rule);
      ("event", Str (if a.Metrics.ea_fired then "fire" else "clear"));
      ("value", num_of_float a.Metrics.ea_value);
    ]

let telemetry_json (t : Metrics.telemetry_summary) =
  Obj
    [
      ("scrapes", num_of_int t.Metrics.tm_scrapes);
      ("series", Arr (List.map tel_series_json t.Metrics.tm_series));
      ("alerts", Arr (List.map tel_alert_json t.Metrics.tm_alerts));
    ]

let opt f = function None -> Null | Some v -> f v

let governor_json (g : Metrics.governor_summary) =
  Obj
    [
      ("level", num_of_int g.Metrics.g_level);
      ("degrades", num_of_int g.Metrics.g_degrades);
      ("recoveries", num_of_int g.Metrics.g_recoveries);
      ("suppressed", num_of_int g.Metrics.g_suppressed);
      ("prefetch_os_done", num_of_int g.Metrics.g_prefetch_os_done);
      ("prefetch_os_dropped", num_of_int g.Metrics.g_prefetch_os_dropped);
    ]

let chaos_json (ch : Metrics.chaos_summary) =
  Obj
    [
      ("disk_faults", num_of_int ch.Metrics.ch_disk_faults);
      ("disk_retries", num_of_int ch.Metrics.ch_disk_retries);
      ("disk_backoff_ns", num_of_int ch.Metrics.ch_disk_backoff_ns);
      ("disk_timeouts", num_of_int ch.Metrics.ch_disk_timeouts);
      ("slow_requests", num_of_int ch.Metrics.ch_slow_requests);
      ("releaser_stall_ns", num_of_int ch.Metrics.ch_releaser_stall_ns);
      ("daemon_stall_ns", num_of_int ch.Metrics.ch_daemon_stall_ns);
      ("directives_dropped", num_of_int ch.Metrics.ch_directives_dropped);
      ("pressure_spikes", num_of_int ch.Metrics.ch_pressure_spikes);
      ("pressure_pages", num_of_int ch.Metrics.ch_pressure_pages);
    ]

let disk_json (d : Metrics.disk_summary) =
  Obj
    [
      ("reads", num_of_int d.Metrics.dk_reads);
      ("writes", num_of_int d.Metrics.dk_writes);
      ("timeouts", num_of_int d.Metrics.dk_timeouts);
      ("bypasses", num_of_int d.Metrics.dk_bypasses);
      ("busy_ns", num_of_int d.Metrics.dk_busy_ns);
    ]

let tier_row_json (t : Metrics.tier_row) =
  Obj
    [
      ("tier", Str t.Metrics.tr_tier);
      ("reads", num_of_int t.Metrics.tr_reads);
      ("writes", num_of_int t.Metrics.tr_writes);
      ("timeouts", num_of_int t.Metrics.tr_timeouts);
      ("retries", num_of_int t.Metrics.tr_retries);
      ("rejects", num_of_int t.Metrics.tr_rejects);
      ("failovers", num_of_int t.Metrics.tr_failovers);
      ("breaker_transitions", num_of_int t.Metrics.tr_breaker_transitions);
    ]

let tiers_json (ti : Metrics.tiers_summary) =
  Obj
    [
      ("tiers", Arr (List.map tier_row_json ti.Metrics.ti_tiers));
      ("rescues", num_of_int ti.Metrics.ti_rescues);
      ("breaker_state", num_of_int ti.Metrics.ti_breaker_state);
      ("placed", num_of_int ti.Metrics.ti_placed);
      ("zram_amplification", num_of_float ti.Metrics.ti_zram_amplification);
      ("tier_buffered", num_of_int ti.Metrics.ti_tier_buffered);
    ]

let ledger_json (c : Metrics.cell) =
  let module L = Memhog_sim.Ledger in
  let module P = Memhog_compiler.Pir in
  let l = c.Metrics.c_ledger in
  let label tag =
    List.find_opt (fun (si : P.site_info) -> si.P.si_tag = tag) c.Metrics.c_sites
  in
  let row (r : L.site_row) =
    let kind, desc, static_priority =
      match label r.L.sr_site with
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
        ("site", num_of_int r.L.sr_site);
        ("kind", Str kind);
        ("desc", Str desc);
        ("static_priority", num_of_int static_priority);
        ("pf_sent", num_of_int r.L.sr_pf_sent);
        ("pf_issued", num_of_int r.L.sr_pf_issued);
        ("pf_dropped", num_of_int r.L.sr_pf_dropped);
        ("pf_raced", num_of_int r.L.sr_pf_raced);
        ("pf_done", num_of_int r.L.sr_pf_done);
        ("pf_referenced", num_of_int r.L.sr_pf_referenced);
        ("pf_useless", num_of_int r.L.sr_pf_useless);
        ("pf_late", num_of_int r.L.sr_pf_late);
        ("pf_saved_ns", num_of_int r.L.sr_pf_saved_ns);
        ("rel_hints", num_of_int r.L.sr_rel_hints);
        ("rel_filtered", num_of_int r.L.sr_rel_filtered);
        ("rel_buffered", num_of_int r.L.sr_rel_buffered);
        ("rel_stale", num_of_int r.L.sr_rel_stale);
        ("rel_sent", num_of_int r.L.sr_rel_sent);
        ("rel_skipped", num_of_int r.L.sr_rel_skipped);
        ("rel_freed", num_of_int r.L.sr_rel_freed);
        ("rel_rescued", num_of_int r.L.sr_rel_rescued);
        ("rel_refaulted", num_of_int r.L.sr_rel_refaulted);
        ("rel_reused", num_of_int r.L.sr_rel_reused);
        ("rel_unreclaimed", num_of_int r.L.sr_rel_unreclaimed);
        ("priority_mean", num_of_float r.L.sr_priority_mean);
        ("refault_pct", num_of_float r.L.sr_refault_pct);
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

let serving_json (s : Metrics.serving_summary) =
  Obj
    [
      ("offered_rps", num_of_float s.Metrics.sv_offered_rps);
      ("duration_ns", num_of_int s.Metrics.sv_duration_ns);
      ("slo_ns", num_of_int s.Metrics.sv_slo_ns);
      ("arrived", num_of_int s.Metrics.sv_arrived);
      ("completed", num_of_int s.Metrics.sv_completed);
      ("recorded", num_of_int s.Metrics.sv_recorded);
      ("max_queue", num_of_int s.Metrics.sv_max_queue);
      ("slo_ok", num_of_int s.Metrics.sv_slo_ok);
      ("slo_attainment", num_of_float s.Metrics.sv_slo_attainment);
      ("mark_ns", opt num_of_int s.Metrics.sv_mark_ns);
      ("post_recorded", num_of_int s.Metrics.sv_post_recorded);
      ("post_slo_ok", num_of_int s.Metrics.sv_post_slo_ok);
      ("post_attainment", num_of_float s.Metrics.sv_post_attainment);
      ("response_hist", hist_json s.Metrics.sv_response);
    ]

let blame_band_json (b : Metrics.blame_band) =
  Obj
    [
      ("band", Str b.Metrics.bb_label);
      ("count", num_of_int b.Metrics.bb_count);
      ("queue_ns", num_of_int b.Metrics.bb_queue_ns);
      ("index_ns", num_of_int b.Metrics.bb_index_ns);
      ("value_ns", num_of_int b.Metrics.bb_value_ns);
      ("cpu_ns", num_of_int b.Metrics.bb_cpu_ns);
      ("compute_ns", num_of_int b.Metrics.bb_compute_ns);
      ("response_ns", num_of_int b.Metrics.bb_response_ns);
    ]

let blame_json (b : Metrics.blame_summary) =
  Obj
    [
      ("committed", num_of_int b.Metrics.bl_committed);
      ("sampled", num_of_int b.Metrics.bl_sampled);
      ("cap", num_of_int b.Metrics.bl_cap);
      ("p50_ns", num_of_int b.Metrics.bl_p50_ns);
      ("p99_ns", num_of_int b.Metrics.bl_p99_ns);
      ("p999_ns", num_of_int b.Metrics.bl_p999_ns);
      ("bands", Arr (List.map blame_band_json b.Metrics.bl_bands));
      ("response_hist", hist_json b.Metrics.bl_response);
      ("queue_hist", hist_json b.Metrics.bl_queue);
      ("index_hist", hist_json b.Metrics.bl_index);
      ("value_hist", hist_json b.Metrics.bl_value);
      ("cpu_hist", hist_json b.Metrics.bl_cpu);
      ("compute_hist", hist_json b.Metrics.bl_compute);
      ("pf_slack_hist", hist_json b.Metrics.bl_pf_slack);
      ("pf_hidden", num_of_int b.Metrics.bl_pf_hidden);
      ("pf_lost", num_of_int b.Metrics.bl_pf_lost);
      ("bypasses", num_of_int b.Metrics.bl_bypasses);
      ("disk_queue_ns", num_of_int b.Metrics.bl_disk_queue_ns);
      ("disk_service_ns", num_of_int b.Metrics.bl_disk_service_ns);
      ("transit_ns", num_of_int b.Metrics.bl_transit_ns);
    ]

let cell_json (c : Metrics.cell) =
  Obj
    [
      ("workload", Str c.Metrics.c_workload);
      ("variant", Str c.Metrics.c_variant);
      ("elapsed_ns", num_of_int c.Metrics.c_elapsed_ns);
      ("iterations", num_of_int c.Metrics.c_iterations);
      ("app_breakdown", breakdown_json c.Metrics.c_app_breakdown);
      ( "interactive_breakdown",
        opt breakdown_json c.Metrics.c_inter_breakdown );
      ("fault_hist", hist_json c.Metrics.c_fault);
      ("prefetch_hist", hist_json c.Metrics.c_prefetch);
      ("response_hist", opt hist_json c.Metrics.c_response);
      ("release_accuracy", release_json c.Metrics.c_release);
      ("telemetry", telemetry_json c.Metrics.c_telemetry);
      ("hard_faults", num_of_int c.Metrics.c_hard_faults);
      ("soft_faults", num_of_int c.Metrics.c_soft_faults);
      ("swap_reads", num_of_int c.Metrics.c_swap_reads);
      ("swap_writes", num_of_int c.Metrics.c_swap_writes);
      ("governor", opt governor_json c.Metrics.c_governor);
      ("chaos", opt chaos_json c.Metrics.c_chaos);
      ("disk", disk_json c.Metrics.c_disk);
      ("tiers", opt tiers_json c.Metrics.c_tiers);
      ("trace_dropped", num_of_int c.Metrics.c_trace_dropped);
      ("ledger", ledger_json c);
      ("serving", opt serving_json c.Metrics.c_serving);
      ("blame", opt blame_json c.Metrics.c_blame);
    ]

let proc_json (p : Memhog_vm.Vm_stats.proc) =
  let module VS = Memhog_vm.Vm_stats in
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

let global_json (g : Memhog_vm.Vm_stats.global) =
  let module VS = Memhog_vm.Vm_stats in
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

let totals_json (t : Metrics.totals) =
  Obj
    [
      ("cells", num_of_int t.Metrics.t_cells);
      ("elapsed_ns", num_of_int t.Metrics.t_elapsed_ns);
      ("breakdown", breakdown_json t.Metrics.t_breakdown);
      ("proc", proc_json t.Metrics.t_proc);
      ("global", global_json t.Metrics.t_global);
      ("fault_hist", hist_json t.Metrics.t_fault);
      ("prefetch_hist", hist_json t.Metrics.t_prefetch);
      ("response_hist", hist_json t.Metrics.t_response);
    ]

let metrics_json (m : Metrics.t) =
  Obj
    [
      ("schema", Str schema);
      ("schema_version", num_of_int schema_version);
      ("label", Str m.Metrics.m_label);
      ("cells", Arr (List.map cell_json m.Metrics.m_cells));
      ("totals", totals_json m.Metrics.m_totals);
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
        if tolerance <= 0.0 then begin
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
          ys
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

let istr k j = Option.value (str_member k j) ~default:"-"
let icount k j =
  match int_member k j with Some i -> Report.count i | None -> "-"
let ins k j = match int_member k j with Some i -> Report.ns i | None -> "-"

let hist_row label h =
  [
    label;
    icount "count" h;
    ins "p50_ns" h;
    ins "p90_ns" h;
    ins "p99_ns" h;
    ins "max_ns" h;
  ]

let render j =
  match member "cells" j with
  | Some (Arr cells) ->
      let label = Option.value (str_member "label" j) ~default:"" in
      let buf = Buffer.create 4096 in
      let fmt = Format.formatter_of_buffer buf in
      Format.pp_open_vbox fmt 0;
      Format.fprintf fmt "Metrics: %s (%d cells)@,@," label (List.length cells);
      let run c = Printf.sprintf "%s/%s" (istr "workload" c) (istr "variant" c) in
      let breakdown_row name b =
        [
          name;
          ins "user_ns" b;
          ins "system_ns" b;
          ins "io_stall_ns" b;
          ins "resource_stall_ns" b;
        ]
      in
      Report.table ~title:"Execution (out-of-core application)"
        ~header:[ "run"; "user"; "system"; "io stall"; "res stall"; "elapsed"; "iters" ]
        ~rows:
          (List.map
             (fun c ->
               let b = Option.value (member "app_breakdown" c) ~default:Null in
               match breakdown_row (run c) b with
               | name :: rest ->
                   (name :: rest) @ [ ins "elapsed_ns" c; icount "iterations" c ]
               | [] -> [])
             cells)
        fmt ();
      Format.fprintf fmt "@,";
      Report.table ~title:"Demand-fault service time"
        ~header:[ "run"; "faults"; "p50"; "p90"; "p99"; "max" ]
        ~rows:
          (List.map
             (fun c ->
               hist_row (run c)
                 (Option.value (member "fault_hist" c) ~default:Null))
             cells)
        fmt ();
      Format.fprintf fmt "@,";
      Report.table ~title:"Prefetch service time"
        ~header:[ "run"; "prefetches"; "p50"; "p90"; "p99"; "max" ]
        ~rows:
          (List.map
             (fun c ->
               hist_row (run c)
                 (Option.value (member "prefetch_hist" c) ~default:Null))
             cells)
        fmt ();
      let with_response =
        List.filter (fun c -> match member "response_hist" c with
            | Some (Obj _) -> true | _ -> false)
          cells
      in
      if with_response <> [] then begin
        Format.fprintf fmt "@,";
        Report.table ~title:"Interactive response time"
          ~header:[ "run"; "sweeps"; "p50"; "p90"; "p99"; "max" ]
          ~rows:
            (List.map
               (fun c ->
                 hist_row (run c)
                   (Option.value (member "response_hist" c) ~default:Null))
               with_response)
          fmt ()
      end;
      let with_serving =
        List.filter (fun c -> match member "serving" c with
            | Some (Obj _) -> true | _ -> false)
          cells
      in
      if with_serving <> [] then begin
        Format.fprintf fmt "@,";
        Report.table ~title:"Serving tail latency (open-loop, SLO from arrival)"
          ~header:
            [
              "run"; "offered"; "served"; "queue max"; "p50"; "p99"; "p999";
              "max"; "SLO";
            ]
          ~rows:
            (List.map
               (fun c ->
                 let s = Option.value (member "serving" c) ~default:Null in
                 let h = Option.value (member "response_hist" s) ~default:Null in
                 [
                   run c;
                   (match float_member "offered_rps" s with
                   | Some f -> Printf.sprintf "%s rps" (Report.f1 f)
                   | None -> "-");
                   icount "recorded" s;
                   icount "max_queue" s;
                   ins "p50_ns" h;
                   ins "p99_ns" h;
                   ins "p999_ns" h;
                   ins "max_ns" h;
                   (match float_member "slo_attainment" s with
                   | Some f -> Report.pct f
                   | None -> "-");
                 ])
               with_serving)
          fmt ()
      end;
      let with_blame =
        List.filter (fun c -> match member "blame" c with
            | Some (Obj _) -> true | _ -> false)
          cells
      in
      if with_blame <> [] then begin
        Format.fprintf fmt "@,";
        Report.table
          ~title:"Tail blame (mean per request, by percentile band)"
          ~header:
            [
              "run"; "band"; "reqs"; "queue"; "index"; "value"; "cpu wait";
              "compute"; "response";
            ]
          ~rows:
            (List.concat_map
               (fun c ->
                 let b = Option.value (member "blame" c) ~default:Null in
                 match member "bands" b with
                 | Some (Arr bands) ->
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
                       bands
                 | _ -> [])
               with_blame)
          fmt ()
      end;
      Format.fprintf fmt "@,";
      Report.table ~title:"Release accuracy"
        ~header:
          [
            "run"; "requested"; "skipped"; "freed (d/r)"; "rescued (d/r)";
            "rescue ratio (d/r)"; "stale";
          ]
        ~rows:
          (List.map
             (fun c ->
               let ra =
                 Option.value (member "release_accuracy" c) ~default:Null
               in
               let pair k1 k2 =
                 Printf.sprintf "%s/%s" (icount k1 ra) (icount k2 ra)
               in
               let rpair k1 k2 =
                 Printf.sprintf "%s/%s"
                   (match float_member k1 ra with
                   | Some f -> Report.pct f
                   | None -> "-")
                   (match float_member k2 ra with
                   | Some f -> Report.pct f
                   | None -> "-")
               in
               [
                 run c;
                 icount "requested" ra;
                 icount "skipped" ra;
                 pair "freed_daemon" "freed_releaser";
                 pair "rescued_daemon" "rescued_releaser";
                 rpair "rescue_ratio_daemon" "rescue_ratio_releaser";
                 icount "stale_dropped" ra;
               ])
             cells)
        fmt ();
      let with_disk =
        List.filter
          (fun c ->
            match member "disk" c with Some (Obj _) -> true | _ -> false)
          cells
      in
      if with_disk <> [] then begin
        Format.fprintf fmt "@,";
        Report.table ~title:"Swap volume (per-request deadline + arm classes)"
          ~header:
            [ "run"; "reads"; "writes"; "timeouts"; "bypasses"; "busy" ]
          ~rows:
            (List.map
               (fun c ->
                 let d = Option.value (member "disk" c) ~default:Null in
                 [
                   run c;
                   icount "reads" d;
                   icount "writes" d;
                   icount "timeouts" d;
                   icount "bypasses" d;
                   ins "busy_ns" d;
                 ])
               with_disk)
          fmt ()
      end;
      let with_tiers =
        List.filter
          (fun c ->
            match member "tiers" c with Some (Obj _) -> true | _ -> false)
          cells
      in
      if with_tiers <> [] then begin
        Format.fprintf fmt "@,";
        Report.table ~title:"Backing tiers (traffic + breaker)"
          ~header:
            [
              "run"; "tier"; "reads"; "writes"; "timeouts"; "retries";
              "rejects"; "failovers"; "breaker flips";
            ]
          ~rows:
            (List.concat_map
               (fun c ->
                 let ti = Option.value (member "tiers" c) ~default:Null in
                 match member "tiers" ti with
                 | Some (Arr rows) ->
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
                       rows
                 | _ -> [])
               with_tiers)
          fmt ();
        Format.fprintf fmt "@,";
        Report.table ~title:"Tier routing (rescues + breaker close-out)"
          ~header:
            [
              "run"; "rescues"; "breaker"; "placed"; "zram ampl";
              "tier-buffered";
            ]
          ~rows:
            (List.map
               (fun c ->
                 let ti = Option.value (member "tiers" c) ~default:Null in
                 [
                   run c;
                   icount "rescues" ti;
                   (match int_member "breaker_state" ti with
                   | Some 0 -> "closed"
                   | Some 1 -> "half-open"
                   | Some 2 -> "open"
                   | _ -> "-");
                   icount "placed" ti;
                   (match float_member "zram_amplification" ti with
                   | Some f -> Report.f1 f
                   | None -> "-");
                   icount "tier_buffered" ti;
                 ])
               with_tiers)
          fmt ()
      end;
      let with_ledger =
        List.filter
          (fun c ->
            match member "ledger" c with Some (Obj _) -> true | _ -> false)
          cells
      in
      if with_ledger <> [] then begin
        Format.fprintf fmt "@,";
        Report.table ~title:"Wasted work (page-lifecycle ledger)"
          ~header:
            [
              "run"; "pages"; "useless pf"; "late pf"; "early rel (resc/refault)";
              "useful rel"; "unnecessary rel"; "trace drops";
            ]
          ~rows:
            (List.map
               (fun c ->
                 let l = Option.value (member "ledger" c) ~default:Null in
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
               with_ledger)
          fmt ();
        let site_rows =
          List.concat_map
            (fun c ->
              match member "ledger" c with
              | Some l -> (
                  match member "sites" l with
                  | Some (Arr rows) ->
                      List.filter_map
                        (fun r ->
                          (* only rows with activity: keep the report short *)
                          let any k =
                            match int_member k r with
                            | Some v -> v > 0
                            | None -> false
                          in
                          if any "pf_sent" || any "rel_hints" then
                            Some
                              [
                                run c;
                                icount "site" r;
                                Printf.sprintf "%s %s" (istr "kind" r)
                                  (istr "desc" r);
                                Printf.sprintf "%s/%s" (icount "pf_issued" r)
                                  (icount "pf_dropped" r);
                                Printf.sprintf "%s/%s"
                                  (icount "pf_referenced" r)
                                  (icount "pf_useless" r);
                                ins "pf_saved_ns" r;
                                Printf.sprintf "%s/%s" (icount "rel_sent" r)
                                  (icount "rel_freed" r);
                                Printf.sprintf "%s/%s"
                                  (icount "rel_rescued" r)
                                  (icount "rel_refaulted" r);
                                icount "static_priority" r;
                                (match float_member "refault_pct" r with
                                | Some f -> Report.pct (f /. 100.0)
                                | None -> "-");
                              ]
                          else None)
                        rows
                  | _ -> [])
              | None -> [])
            with_ledger
        in
        if site_rows <> [] then begin
          Format.fprintf fmt "@,";
          Report.table ~title:"Per-site efficacy"
            ~header:
              [
                "run"; "site"; "directive"; "pf iss/drop"; "pf ref/useless";
                "saved"; "rel sent/freed"; "resc/refault"; "prio"; "refault%";
              ]
            ~rows:site_rows fmt ()
        end
      end;
      Format.fprintf fmt "@,";
      Report.table ~title:"Telemetry (min / mean / max / last)"
        ~header:
          [ "run"; "series"; "kind"; "samples"; "min"; "mean"; "max"; "last" ]
        ~rows:
          (List.concat_map
             (fun c ->
               match member "telemetry" c with
               | Some tel -> (
                   match member "series" tel with
                   | Some (Arr ss) ->
                       List.map
                         (fun s ->
                           let f k =
                             match float_member k s with
                             | Some f -> Report.f1 f
                             | None -> "-"
                           in
                           [
                             run c; istr "name" s; istr "kind" s;
                             icount "samples" s; f "min"; f "mean"; f "max";
                             f "last";
                           ])
                         ss
                   | _ -> [])
               | _ -> [])
             cells)
        fmt ();
      let alert_rows =
        List.concat_map
          (fun c ->
            match member "telemetry" c with
            | Some tel -> (
                match member "alerts" tel with
                | Some (Arr als) ->
                    List.map
                      (fun a ->
                        [
                          run c;
                          ins "time_ns" a;
                          istr "rule" a;
                          istr "event" a;
                          (match float_member "value" a with
                          | Some f -> Report.f1 f
                          | None -> "-");
                        ])
                      als
                | _ -> [])
            | _ -> [])
          cells
      in
      if alert_rows <> [] then begin
        Format.fprintf fmt "@,";
        Report.table ~title:"Alert timeline"
          ~header:[ "run"; "time"; "rule"; "event"; "value" ]
          ~rows:alert_rows fmt ()
      end;
      let with_chaos =
        List.filter
          (fun c ->
            match member "chaos" c with Some (Obj _) -> true | _ -> false)
          cells
      in
      if with_chaos <> [] then begin
        Format.fprintf fmt "@,";
        Report.table ~title:"Fault injection"
          ~header:
            [
              "run"; "faults"; "retries"; "backoff"; "timeouts"; "slow";
              "stall (rel/dmn)"; "dropped"; "pressure";
            ]
          ~rows:
            (List.map
               (fun c ->
                 let ch = Option.value (member "chaos" c) ~default:Null in
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
                 ])
               with_chaos)
          fmt ();
        Format.fprintf fmt "@,";
        Report.table ~title:"Degradation governor"
          ~header:
            [
              "run"; "level"; "degrades"; "recoveries"; "suppressed";
              "os prefetch (done/dropped)";
            ]
          ~rows:
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
          fmt ()
      end;
      (match member "totals" j with
      | Some t ->
          Format.fprintf fmt "@,";
          Report.table ~title:"Totals (all cells)"
            ~header:[ ""; "count"; "p50"; "p90"; "p99"; "max" ]
            ~rows:
              (List.filter_map
                 (fun (label, key) ->
                   match member key t with
                   | Some (Obj _ as h) -> Some (hist_row label h)
                   | _ -> None)
                 [
                   ("demand faults", "fault_hist");
                   ("prefetches", "prefetch_hist");
                   ("interactive sweeps", "response_hist");
                 ])
            fmt ()
      | None -> ());
      Format.pp_close_box fmt ();
      Format.pp_print_flush fmt ();
      Ok (Buffer.contents buf)
  | _ -> Error "metrics document has no \"cells\" array"
