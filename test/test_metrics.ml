(* Tests for the derived-metrics layer: histogram algebra, canonical JSON
   serialization, the tolerance compare that backs the CI regression gate,
   and a golden metrics file for one small workload cell. *)

module H = Memhog_sim.Histogram
module Metrics = Memhog_core.Metrics
module Mio = Memhog_core.Metrics_io
module Machine = Memhog_core.Machine
module E = Memhog_core.Experiment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let hist_of l =
  let h = H.create () in
  List.iter (fun v -> H.record h v) l;
  h

(* A value generator that exercises both the exact unit buckets (v < 32)
   and several octaves of the logarithmic range, up to simulated hours. *)
let value_gen =
  QCheck.Gen.(
    oneof
      [
        int_bound 31;
        int_bound 4096;
        map (fun v -> v * 12_345) (int_bound 1_000_000);
        map (fun v -> v * 1_000_000) (int_bound 4_000_000);
      ])

let values_arb = QCheck.make ~print:QCheck.Print.(list int) QCheck.Gen.(list_size (0 -- 150) value_gen)

let nonempty_arb =
  QCheck.make ~print:QCheck.Print.(list int)
    QCheck.Gen.(list_size (1 -- 150) value_gen)

(* ------------------------------------------------------------------ *)
(* Histogram properties                                                *)
(* ------------------------------------------------------------------ *)

let prop_merge_is_concat =
  QCheck.Test.make ~name:"merge of two == histogram of concatenation"
    ~count:300
    (QCheck.pair values_arb values_arb)
    (fun (xs, ys) ->
      let a = hist_of xs in
      H.merge ~into:a (hist_of ys);
      H.equal a (hist_of (xs @ ys)))

let prop_percentiles_monotone =
  QCheck.Test.make ~name:"percentiles monotone and within [min,max]"
    ~count:300 nonempty_arb (fun xs ->
      let h = hist_of xs in
      let lo = Option.get (H.min_value h)
      and hi = Option.get (H.max_value h) in
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ] in
      let vals = List.map (H.percentile h) ps in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone vals
      && List.for_all (fun v -> v >= lo && v <= hi) vals
      && H.percentile h 0.0 = lo
      && H.percentile h 100.0 = hi)

let prop_bucket_bounds =
  QCheck.Test.make ~name:"bucket bounds bracket the value" ~count:500
    (QCheck.make value_gen) (fun v ->
      let b = H.bucket_of v in
      H.bucket_lo b <= v && v <= H.bucket_hi b && H.bucket_of (H.bucket_lo b) = b)

(* [H.msb] against the shift-by-one loop it replaced, on random
   non-negative ints and at every power of two and its neighbours. *)
let msb_loop v =
  let r = ref 0 and v = ref v in
  while !v > 1 do
    incr r;
    v := !v lsr 1
  done;
  !r

let prop_msb_matches_loop =
  QCheck.Test.make ~name:"msb equals the shift loop" ~count:1000
    QCheck.(map (fun v -> v land max_int) int)
    (fun v -> H.msb v = msb_loop v)

let test_msb_at_powers_of_two () =
  for k = 0 to 61 do
    List.iter
      (fun v -> check_int (Printf.sprintf "msb %d" v) (msb_loop v) (H.msb v))
      [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]
  done;
  check_int "msb max_int" 61 (H.msb max_int)

let prop_restore_roundtrip =
  QCheck.Test.make ~name:"restore (to_alist h) == h" ~count:300 nonempty_arb
    (fun xs ->
      let h = hist_of xs in
      let r =
        H.restore ~sum:(H.sum h)
          ~min_v:(Option.get (H.min_value h))
          ~max_v:(Option.get (H.max_value h))
          (H.to_alist h)
      in
      H.equal h r)

let test_empty_histogram () =
  let h = H.create () in
  check_bool "empty" true (H.is_empty h);
  check_int "count" 0 (H.count h);
  check_int "p50 of empty" 0 (H.percentile h 50.0);
  check_int "p100 of empty" 0 (H.percentile h 100.0);
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (H.mean h);
  check_bool "no min" true (H.min_value h = None);
  check_bool "no max" true (H.max_value h = None)

let test_exact_stats () =
  let h = hist_of [ 5; 5; 1000; 70_000 ] in
  check_int "count" 4 (H.count h);
  check_int "sum" 71_010 (H.sum h);
  check_bool "min exact" true (H.min_value h = Some 5);
  check_bool "max exact" true (H.max_value h = Some 70_000);
  check_bool "rejects negatives" true
    (match H.record h (-1) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* JSON round trip                                                     *)
(* ------------------------------------------------------------------ *)

let sample_doc =
  Mio.Obj
    [
      ("schema", Mio.Str "memhog-metrics");
      ("n", Mio.num_of_int 42);
      ("negative", Mio.num_of_int (-7));
      ("big", Mio.num_of_int 61_028_726_840);
      ("mean", Mio.num_of_float 1845345.08);
      ("flag", Mio.Bool true);
      ("nothing", Mio.Null);
      ("text", Mio.Str "quote \" backslash \\ newline \n tab \t");
      ("buckets", Mio.Arr [ Mio.Arr [ Mio.num_of_int 0; Mio.num_of_int 3 ] ]);
      ("empty_obj", Mio.Obj []);
      ("empty_arr", Mio.Arr []);
    ]

let test_json_roundtrip () =
  let text = Mio.to_string sample_doc in
  match Mio.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok parsed ->
      check_bool "roundtrip equal" true
        (Mio.compare_json ~tolerance:0.0 sample_doc parsed = []);
      (* canonical: serializing the parse reproduces the bytes *)
      check_str "canonical bytes" text (Mio.to_string parsed)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "rejects %S" s) true
        (match Mio.parse s with Error _ -> true | Ok _ -> false))
    [ "{"; "[1,]"; "{\"a\" 1}"; "nul"; "1 2"; "\"unterminated"; "" ]

(* ------------------------------------------------------------------ *)
(* Compare semantics                                                   *)
(* ------------------------------------------------------------------ *)

let doc_with p99 =
  Mio.Obj
    [
      ( "cells",
        Mio.Arr [ Mio.Obj [ ("fault_hist", Mio.Obj [ ("p99_ns", Mio.num_of_int p99) ]) ] ] );
    ]

let test_compare_tolerance () =
  let diffs t a b = Mio.compare_json ~tolerance:t (doc_with a) (doc_with b) in
  check_int "identical at 0" 0 (List.length (diffs 0.0 100 100));
  check_int "off by one at 0" 1 (List.length (diffs 0.0 100 101));
  check_int "4% within 5%" 0 (List.length (diffs 5.0 100 104));
  check_int "10% beyond 5%" 1 (List.length (diffs 5.0 100 110));
  (match diffs 0.0 100 101 with
  | [ d ] -> check_str "path" "cells[0].fault_hist.p99_ns" d.Mio.d_path
  | _ -> Alcotest.fail "expected one diff");
  (* A tolerance that is not a finite percentage would pass any drift (nan,
     inf) or silently act as 0 (negative). *)
  List.iter
    (fun t ->
      check_bool
        (Printf.sprintf "tolerance %g rejected" t)
        true
        (match diffs t 100 130 with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ Float.nan; Float.infinity; -1.0 ]

let test_compare_structure () =
  let a = Mio.Obj [ ("x", Mio.num_of_int 1) ] in
  let b = Mio.Obj [ ("x", Mio.num_of_int 1); ("y", Mio.num_of_int 2) ] in
  check_bool "extra key flagged" true
    (Mio.compare_json ~tolerance:100.0 a b <> []);
  check_bool "missing key flagged" true
    (Mio.compare_json ~tolerance:100.0 b a <> []);
  check_bool "length mismatch flagged" true
    (Mio.compare_json ~tolerance:100.0
       (Mio.Arr [ Mio.Null ])
       (Mio.Arr [ Mio.Null; Mio.Null ])
     <> []);
  check_bool "type change flagged" true
    (Mio.compare_json ~tolerance:100.0 (Mio.Str "1") (Mio.num_of_int 1) <> []);
  (* Same members, different order: the bytes differ, so a tolerance-0
     gate must not pass it. *)
  let ab = Mio.Obj [ ("a", Mio.num_of_int 1); ("b", Mio.num_of_int 2) ] in
  let ba = Mio.Obj [ ("b", Mio.num_of_int 2); ("a", Mio.num_of_int 1) ] in
  let wrap o = Mio.Obj [ ("cells", Mio.Arr [ o ]) ] in
  match Mio.compare_json ~tolerance:0.0 (wrap ab) (wrap ba) with
  | [ d ] ->
      check_str "reorder path" "cells[0]" d.Mio.d_path;
      check_str "baseline order" "a, b" d.Mio.d_expected;
      check_str "current order" "b, a" d.Mio.d_got
  | ds -> Alcotest.failf "key reorder: expected one diff, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Golden metrics for one small workload cell                          *)
(* ------------------------------------------------------------------ *)

(* The same cell `memhog run EMBAR --quick -v R -n 1 --metrics F` writes
   (same setup, same label), so the golden file can be regenerated with the
   CLI. *)
let golden_metrics () =
  let wl = Memhog_workloads.Workload.find "EMBAR" in
  let r =
    E.run
      (E.setup ~machine:Machine.quick ~workload:wl ~variant:E.R ~iterations:1 ())
  in
  Metrics.of_results
    ~label:(Printf.sprintf "%s EMBAR/R" Machine.quick.Machine.m_name)
    [ r ]

(* ------------------------------------------------------------------ *)
(* The always-present disk object                                      *)
(* ------------------------------------------------------------------ *)

(* The per-request deadline counter used to be dormant outside chaos runs;
   the cell's "disk" object now carries it everywhere.  An injected
   disk-slow window must move it: inflated positioning/transfer times push
   requests past the deadline that a healthy run meets. *)
let disk_cell ?chaos () =
  let wl = Memhog_workloads.Workload.find "EMBAR" in
  E.run
    (E.setup ~machine:Machine.quick ~workload:wl ~variant:E.R ~iterations:1
       ?chaos ())

let test_disk_slow_moves_timeouts () =
  let healthy = disk_cell () in
  let slowed = disk_cell ~chaos:"disk-slow@0s-60s:factor=20" () in
  check_bool "disk traffic present" true
    (healthy.E.r_swap_reads > 0 && healthy.E.r_swap_writes > 0);
  check_bool "slow window adds deadline misses" true
    (slowed.E.r_disk_timeouts > healthy.E.r_disk_timeouts);
  check_bool "busy time inflated too" true
    (slowed.E.r_disk_busy > healthy.E.r_disk_busy);
  (* And the counter is the one the report table renders. *)
  match
    Mio.render
      (Mio.metrics_json (Metrics.of_results ~label:"disk-slow" [ slowed ]))
  with
  | Ok text ->
      check_bool "report renders the swap-volume table" true
        (contains text "Swap volume")
  | Error e -> Alcotest.failf "render failed: %s" e

(* ------------------------------------------------------------------ *)
(* Schema 8: every number [memhog run] prints is a document key        *)
(* ------------------------------------------------------------------ *)

let get k = function
  | Mio.Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> Alcotest.failf "no key %S" k)
  | _ -> Alcotest.failf "not an object where %S was expected" k

let lexeme = function Mio.Num (_, l) -> l | Mio.Null -> "null" | _ -> "?"

(* Each (key, source value) pair: the key's number is its source's. *)
let check_ints what obj pairs =
  List.iter
    (fun (k, v) ->
      check_str (Printf.sprintf "%s.%s" what k) (string_of_int v)
        (lexeme (get k obj)))
    pairs

let test_schema8_keys () =
  let module VS = Memhog_vm.Vm_stats in
  let module Rt = Memhog_runtime.Runtime in
  let module Chaos = Memhog_sim.Chaos in
  let cell ?interactive_sleep ?chaos ?tiers w variant =
    E.run
      (E.setup ~machine:Machine.quick
         ~workload:(Memhog_workloads.Workload.find w)
         ~variant ~iterations:1 ?interactive_sleep ?chaos ?tiers ())
  in
  let co =
    cell ~interactive_sleep:(Memhog_sim.Time_ns.sec 1)
      ~chaos:"net-partition@1s-3s" ~tiers:"far" "EMBAR" E.B
  in
  let batch = cell "MATVEC" E.O in
  let doc = Mio.metrics_json (Metrics.of_results ~label:"v8" [ co; batch ]) in
  let c, o =
    match get "cells" doc with
    | Mio.Arr [ c; o ] -> (c, o)
    | _ -> Alcotest.fail "expected two cells"
  in
  List.iter
    (fun (j, (r : E.result)) ->
      let s = r.E.r_app_stats in
      check_ints r.E.r_workload j
        [
          ("soft_faults_daemon", s.VS.soft_faults_daemon);
          ("validation_faults", s.VS.validation_faults);
        ];
      let g = r.E.r_global in
      check_ints "global" (get "global" j)
        [
          ("daemon_activations", g.VS.daemon_activations);
          ("daemon_pages_stolen", g.VS.daemon_pages_stolen);
          ("daemon_frames_scanned", g.VS.daemon_frames_scanned);
          ("daemon_invalidations", g.VS.daemon_invalidations);
          ("releaser_batches", g.VS.releaser_batches);
          ("releaser_pages_freed", g.VS.releaser_pages_freed);
          ("allocations", g.VS.allocations);
          ("allocation_waits", g.VS.allocation_waits);
        ])
    [ (c, co); (o, batch) ];
  let rt = Option.get co.E.r_runtime in
  check_ints "runtime" (get "runtime" c)
    [
      ("prefetch_requests", rt.Rt.rt_prefetch_requests);
      ("prefetch_filtered", rt.Rt.rt_prefetch_filtered);
      ("prefetch_enqueued", rt.Rt.rt_prefetch_enqueued);
      ("release_requests", rt.Rt.rt_release_requests);
      ("release_filtered_same", rt.Rt.rt_release_filtered_same);
      ("release_filtered_bitmap", rt.Rt.rt_release_filtered_bitmap);
      ("release_issued", rt.Rt.rt_release_issued);
      ("release_buffered", rt.Rt.rt_release_buffered);
      ("buffer_drains", rt.Rt.rt_buffer_drains);
    ];
  check_bool "the run-time layer saw requests" true
    (rt.Rt.rt_prefetch_requests > 0 && rt.Rt.rt_release_requests > 0);
  let i = Option.get co.E.r_interactive in
  let ij = get "interactive" c in
  check_ints "interactive" ij [ ("alone_ns", i.E.is_alone_response) ];
  check_str "interactive.avg_hard_faults"
    (lexeme
       (match i.E.is_avg_hard_faults with
       | Some f -> Mio.num_of_float f
       | None -> Mio.Null))
    (lexeme (get "avg_hard_faults" ij));
  let cs = Option.get co.E.r_chaos in
  check_ints "chaos" (get "chaos" c)
    [
      ("net_partition_drops", cs.Chaos.net_partition_drops);
      ("net_slow_requests", cs.Chaos.net_slow_requests);
      ("net_jitter_ns", cs.Chaos.net_jitter_ns);
    ];
  check_bool "the partition dropped far-link requests" true
    (cs.Chaos.net_partition_drops > 0);
  check_bool "runtime null for O" true (get "runtime" o = Mio.Null);
  check_bool "interactive null without the task" true
    (get "interactive" o = Mio.Null)

let golden_path = "golden_metrics.json"

let test_golden_cell () =
  let text = Mio.to_string (Mio.metrics_json (golden_metrics ())) in
  let golden =
    In_channel.with_open_bin golden_path In_channel.input_all
  in
  if String.equal text golden then ()
  else
    match (Mio.parse golden, Mio.parse text) with
    | Ok g, Ok c -> (
        match Mio.compare_json ~tolerance:0.0 g c with
        | [] ->
            Alcotest.fail
              "golden mismatch: same values, different formatting (canonical \
               writer changed?)"
        | d :: _ as diffs ->
            Alcotest.failf
              "golden mismatch: %d field(s) drifted; first: %s (%s).  If the \
               change is intended, regenerate test/golden_metrics.json."
              (List.length diffs) d.Mio.d_path d.Mio.d_reason)
    | _ -> Alcotest.fail "golden mismatch and one side failed to parse"

let test_perturbed_percentile_detected () =
  let golden =
    In_channel.with_open_bin golden_path In_channel.input_all
  in
  match Mio.parse golden with
  | Error e -> Alcotest.failf "golden unparseable: %s" e
  | Ok g ->
      (* Bump the first p99 we find by 10%: a 5% gate must flag it. *)
      let bumped = ref false in
      let rec bump = function
        | Mio.Obj kvs ->
            Mio.Obj
              (List.map
                 (fun (k, v) ->
                   match v with
                   | Mio.Num (f, _) when k = "p99_ns" && (not !bumped) && f > 0.0 ->
                       bumped := true;
                       (k, Mio.num_of_float (f *. 1.1))
                   | v -> (k, bump v))
                 kvs)
        | Mio.Arr items -> Mio.Arr (List.map bump items)
        | v -> v
      in
      let perturbed = bump g in
      check_bool "found a p99 to perturb" true !bumped;
      check_bool "tolerance 5 flags a 10% drift" true
        (Mio.compare_json ~tolerance:5.0 g perturbed <> []);
      check_int "tolerance 0 flags it too" 1
        (List.length (Mio.compare_json ~tolerance:0.0 g perturbed))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* The first cells of the rows of the rendered table titled [title]. *)
let row_names text title =
  let rec find = function
    | l :: _header :: _rule :: rest when l = title -> names rest
    | _ :: rest -> find rest
    | [] -> Alcotest.failf "no table %S in the render" title
  and names = function
    | l :: rest when l <> "" ->
        String.trim (List.hd (String.split_on_char '|' l)) :: names rest
    | _ -> []
  in
  find (String.split_on_char '\n' text)

(* Every committed document names each of its rows apart, so a grid whose
   cells differ only by tier or offered load reads unambiguously. *)
let test_render_distinct_rows () =
  List.iter
    (fun path ->
      let text =
        match Result.bind (Mio.load_file ~path) Mio.render with
        | Ok text -> text
        | Error e -> Alcotest.failf "%s: %s" path e
      in
      let names = row_names text "Execution (out-of-core application)" in
      let rec repeats = function
        | a :: (b :: _ as rest) ->
            if a = b then a :: repeats rest else repeats rest
        | _ -> []
      in
      check_bool (path ^ " has rows") true (names <> []);
      Alcotest.(check (list string))
        (path ^ " repeated row names")
        []
        (repeats (List.sort compare names)))
    [
      "../bench/BENCH_metrics.json"; "../bench/CHAOS_metrics.json";
      "../bench/SERVE_metrics.json"; "../bench/TIER_metrics.json";
      "../bench/OBS_metrics.json"; golden_path;
    ]

(* A serving cell that recorded nothing is called out under the serving
   table: its 0% attainment measured nothing. *)
let test_render_starved_cell () =
  let n = Mio.num_of_int in
  let serving =
    Mio.Obj
      [
        ("offered_rps", Mio.num_of_float 4480.0);
        ("arrived", n 12);
        ("completed", n 12);
        ("recorded", n 0);
      ]
  in
  let cell =
    Mio.Obj
      [
        ("workload", Mio.Str "MATVEC");
        ("variant", Mio.Str "O");
        ("serving", serving);
      ]
  in
  match Mio.render (Mio.Obj [ ("cells", Mio.Arr [ cell ]) ]) with
  | Error e -> Alcotest.failf "render failed: %s" e
  | Ok text ->
      check_bool "starved-cell line" true
        (contains text
           "WARNING: MATVEC/O @ 4480 rps recorded no responses (12 \
            completed, none past warm-up)")

let () =
  Alcotest.run "memhog_metrics"
    [
      ( "histogram",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_merge_is_concat;
            prop_percentiles_monotone;
            prop_bucket_bounds;
            prop_restore_roundtrip;
            prop_msb_matches_loop;
          ]
        @ [
            Alcotest.test_case "msb at powers of two" `Quick
              test_msb_at_powers_of_two;
            Alcotest.test_case "empty" `Quick test_empty_histogram;
            Alcotest.test_case "exact stats" `Quick test_exact_stats;
          ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "compare",
        [
          Alcotest.test_case "tolerance" `Quick test_compare_tolerance;
          Alcotest.test_case "structure" `Quick test_compare_structure;
          Alcotest.test_case "perturbed percentile" `Quick
            test_perturbed_percentile_detected;
        ] );
      ( "disk",
        [
          Alcotest.test_case "disk-slow window moves the timeout counter"
            `Slow test_disk_slow_moves_timeouts;
        ] );
      ( "schema 8",
        [
          Alcotest.test_case "new keys equal their source records" `Quick
            test_schema8_keys;
        ] );
      ( "golden",
        [ Alcotest.test_case "EMBAR/R cell" `Quick test_golden_cell ] );
      ( "render",
        [
          Alcotest.test_case "names rows distinctly" `Quick
            test_render_distinct_rows;
          Alcotest.test_case "starved serving cell called out" `Quick
            test_render_starved_cell;
        ] );
    ]
