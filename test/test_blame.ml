(* Tests for the per-request blame layer ([memhog serve]): structural
   additivity of the span decomposition (components sum exactly to the
   recorded response, for synthetic lifecycles and for a real serving
   grid), byte-identical blame output at any --jobs, percentile-band
   bookkeeping, the rendered blame tables, and the slo_attainment
   zero-recorded fix. *)

open Memhog_sim
module E = Memhog_core.Experiment
module Figures = Memhog_core.Figures
module Machine = Memhog_core.Machine
module Metrics = Memhog_core.Metrics
module Mio = Memhog_core.Metrics_io
module Serve = Memhog_core.Serve
module Report = Memhog_core.Report
module Server = Memhog_exec.Server

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Synthetic lifecycles: additivity as a property                      *)
(* ------------------------------------------------------------------ *)

(* Drive one request lifecycle per component tuple through a private
   Reqtrace, advancing a fake clock by each component's duration between
   the lifecycle calls — exactly the call sequence Server.serve_one
   makes. *)
let drive_spans reqs =
  let rq = Reqtrace.create ~seed:7 () in
  let now = ref 0 in
  List.iteri
    (fun i ((q, ix, v), (cw, cp)) ->
      let arrival = !now in
      now := !now + q;
      Reqtrace.start rq ~pid:1 ~key:i ~arrival ~now:!now;
      now := !now + ix;
      Reqtrace.note_touch rq ~pid:1 ~owner:0 ~kind:Reqtrace.Index ~vpn:i
        ~outcome:Reqtrace.Hit ~now:!now;
      now := !now + v;
      Reqtrace.note_touch rq ~pid:1 ~owner:0 ~kind:Reqtrace.Value ~vpn:(i + 100_000)
        ~outcome:Reqtrace.Soft ~now:!now;
      now := !now + cw;
      Reqtrace.note_cpu_acquired rq ~pid:1 ~now:!now;
      now := !now + cp;
      Reqtrace.finish rq ~pid:1 ~commit:true ~now:!now)
    reqs;
  rq

let spans_additive rq =
  let ok = ref true in
  Reqtrace.iter_sampled rq (fun sp ->
      let open Reqtrace in
      if
        sp.sp_queue + sp.sp_index + sp.sp_value + sp.sp_cpu + sp.sp_compute
        <> sp.sp_response
      then ok := false);
  !ok

let reqs_arb =
  QCheck.(
    list_of_size
      Gen.(1 -- 80)
      (pair (triple small_nat small_nat small_nat) (pair small_nat small_nat)))

let prop_synthetic_additivity =
  QCheck.Test.make
    ~name:"blame components sum exactly to response for every sampled span"
    ~count:200 reqs_arb
    (fun reqs ->
      let rq = drive_spans reqs in
      spans_additive rq
      && Reqtrace.committed rq = List.length reqs
      && Reqtrace.sampled rq = min (List.length reqs) 4096)

(* The component values themselves must match what the clock did, not just
   sum correctly: pin one hand-built lifecycle exactly. *)
let test_synthetic_exact () =
  let rq = drive_spans [ ((3, 5, 13), (7, 11)) ] in
  Reqtrace.iter_sampled rq (fun sp ->
      let open Reqtrace in
      check_int "queue" 3 sp.sp_queue;
      check_int "index" 5 sp.sp_index;
      check_int "value" 13 sp.sp_value;
      check_int "cpu" 7 sp.sp_cpu;
      check_int "compute" 11 sp.sp_compute;
      check_int "response" (3 + 5 + 13 + 7 + 11) sp.sp_response)

(* Uncommitted (warm-up) spans must leave no mark: not counted, not
   sampled, absent from histograms. *)
let test_warmup_not_committed () =
  let rq = Reqtrace.create ~seed:7 () in
  Reqtrace.start rq ~pid:1 ~key:0 ~arrival:0 ~now:5;
  Reqtrace.note_touch rq ~pid:1 ~owner:0 ~kind:Reqtrace.Index ~vpn:0
    ~outcome:Reqtrace.Hit ~now:6;
  Reqtrace.note_touch rq ~pid:1 ~owner:0 ~kind:Reqtrace.Value ~vpn:1
    ~outcome:Reqtrace.Hit ~now:7;
  Reqtrace.note_cpu_acquired rq ~pid:1 ~now:8;
  Reqtrace.finish rq ~pid:1 ~commit:false ~now:9;
  check_int "nothing committed" 0 (Reqtrace.committed rq);
  check_int "nothing sampled" 0 (Reqtrace.sampled rq);
  check_bool "no slowest" true (Reqtrace.slowest rq = None);
  let s = Reqtrace.summarize rq in
  check_int "empty response histogram" 0 (Histogram.count s.Reqtrace.su_response)

(* Every per-request call on a fiber that has no live span: a no-op. *)
let poke rq pid =
  Reqtrace.note_touch rq ~pid ~owner:0 ~kind:Reqtrace.Index ~vpn:3
    ~outcome:Reqtrace.Hit ~now:5;
  Reqtrace.note_cpu_acquired rq ~pid ~now:5;
  Reqtrace.note_disk_queue rq ~pid ~start:0 ~ns:1 ~bypassed:true;
  Reqtrace.note_disk_service rq ~pid ~start:0 ~ns:1;
  Reqtrace.note_transit rq ~pid ~start:0 ~ns:1;
  Reqtrace.finish rq ~pid ~commit:true ~now:6

(* Only [start] and the [note_prefetch_*] calls grow the blame layer's
   pid- and vpn-indexed arrays.  Every other call reads a pid or vpn it
   has never seen, or one beyond every array, as absent: it must not
   raise, and must not grow an array (no allocation at all; growing to
   [max_int] would raise).  A fiber whose span finished is absent too. *)
let test_unseen_reads_absent () =
  let rq = Reqtrace.create ~seed:7 () in
  Reqtrace.note_prefetch_issued rq ~owner:0 ~vpn:3 ~now:0;
  Reqtrace.note_prefetch_done rq ~owner:0 ~vpn:3 ~ns:2;
  Reqtrace.start rq ~pid:2 ~key:0 ~arrival:0 ~now:1;
  let w0 = Gc.minor_words () in
  (* never started: inside the span array, beyond it, and far beyond *)
  poke rq 0;
  poke rq 3;
  poke rq 100;
  poke rq (-1);
  poke rq max_int;
  (* the live span touching vpns no prefetch ever named *)
  Reqtrace.note_touch rq ~pid:2 ~owner:0 ~kind:Reqtrace.Value ~vpn:100
    ~outcome:Reqtrace.Hit ~now:5;
  Reqtrace.note_touch rq ~pid:2 ~owner:0 ~kind:Reqtrace.Value ~vpn:max_int
    ~outcome:Reqtrace.Hard ~now:5;
  Reqtrace.note_touch rq ~pid:2 ~owner:0 ~kind:Reqtrace.Value ~vpn:(-7)
    ~outcome:Reqtrace.Hard ~now:5;
  (* the prefetched vpn, in address spaces that never prefetched it *)
  Reqtrace.note_touch rq ~pid:2 ~owner:9 ~kind:Reqtrace.Value ~vpn:3
    ~outcome:Reqtrace.Hit ~now:5;
  Reqtrace.note_touch rq ~pid:2 ~owner:(-1) ~kind:Reqtrace.Value ~vpn:3
    ~outcome:Reqtrace.Hit ~now:5;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "no allocation" 0.0 words;
  check_int "nothing committed by absent fibers" 0 (Reqtrace.committed rq);
  Reqtrace.finish rq ~pid:2 ~commit:true ~now:9;
  poke rq 2;
  let b = Reqtrace.summarize rq in
  check_int "the live span commits" 1 b.Reqtrace.su_committed;
  check_int "no race settled on unnamed pages" 0
    (b.Reqtrace.su_pf_hidden + b.Reqtrace.su_pf_lost);
  check_int "absent fibers charged no disk time" 0
    (b.Reqtrace.su_disk_queue + b.Reqtrace.su_disk_service
   + b.Reqtrace.su_transit)

(* Address spaces all number their pages from 0.  A prefetch another
   process completes on the same vpn number, between the server's urgent
   issue and its touch, must not enter the server's slack: the server's
   own I/O span (30 ns) is the one netted out, 100 - 10 - 30 = 60. *)
let test_prefetch_io_keyed_by_owner () =
  let slack ~hog =
    let rq = Reqtrace.create ~seed:7 () in
    let server = 0 and other = 1 in
    Reqtrace.start rq ~pid:1 ~key:0 ~arrival:0 ~now:0;
    Reqtrace.note_prefetch_issued rq ~owner:server ~vpn:5 ~now:10;
    Reqtrace.note_prefetch_done rq ~owner:server ~vpn:5 ~ns:30;
    if hog then Reqtrace.note_prefetch_done rq ~owner:other ~vpn:5 ~ns:1_000;
    Reqtrace.note_touch rq ~pid:1 ~owner:server ~kind:Reqtrace.Index ~vpn:5
      ~outcome:Reqtrace.Hit ~now:100;
    Reqtrace.finish rq ~pid:1 ~commit:true ~now:120;
    match Reqtrace.slowest rq with
    | Some sp -> sp.Reqtrace.sp_pf_slack
    | None -> Alcotest.fail "no committed span"
  in
  check_int "slack alone" 60 (slack ~hog:false);
  check_int "slack beside another address space" 60 (slack ~hog:true)

(* ------------------------------------------------------------------ *)
(* A real serving grid                                                 *)
(* ------------------------------------------------------------------ *)

let run_grid ~jobs () =
  let cells, read =
    Serve.plan ~machine:Machine.quick ~rates:[ 3840.0 ]
      ~duration:(Time_ns.sec 10) ()
  in
  read (Figures.simulate ~jobs cells)

let grid = lazy (run_grid ~jobs:2 ())

(* The acceptance criterion, on real traffic: every span the reservoir
   retained decomposes additively, and the blame close-out's books
   balance against the server's own. *)
let test_grid_additivity_and_books () =
  let t = Lazy.force grid in
  List.iter
    (fun (r : E.result) ->
      check_bool "every sampled span additive" true
        (spans_additive r.E.r_reqtrace);
      let s = Serve.serving_exn r in
      let b = Reqtrace.summarize r.E.r_reqtrace in
      check_int "committed spans == recorded responses"
        s.Server.sm_recorded b.Reqtrace.su_committed;
      check_bool "sampled bounded by cap" true
        (b.Reqtrace.su_sampled <= b.Reqtrace.su_cap
        && b.Reqtrace.su_sampled <= b.Reqtrace.su_committed
        && b.Reqtrace.su_sampled > 0);
      check_int "band counts partition the sample" b.Reqtrace.su_sampled
        (List.fold_left
           (fun acc (bd : Reqtrace.band) -> acc + bd.Reqtrace.bd_count)
           0 b.Reqtrace.su_bands);
      (* per-band additivity survives aggregation *)
      List.iter
        (fun (bd : Reqtrace.band) ->
          check_int
            (Printf.sprintf "band %s additive" bd.Reqtrace.bd_label)
            bd.Reqtrace.bd_response
            (bd.Reqtrace.bd_queue + bd.Reqtrace.bd_index
           + bd.Reqtrace.bd_value + bd.Reqtrace.bd_cpu
           + bd.Reqtrace.bd_compute))
        b.Reqtrace.su_bands;
      (* the population histograms also telescope: sums agree in total *)
      let sum h = Histogram.sum h in
      check_int "population histograms additive in total"
        (sum b.Reqtrace.su_response)
        (sum b.Reqtrace.su_queue + sum b.Reqtrace.su_index
       + sum b.Reqtrace.su_value + sum b.Reqtrace.su_cpu
       + sum b.Reqtrace.su_compute);
      (* the slowest span survives sampling and bounds the sample *)
      match Reqtrace.slowest r.E.r_reqtrace with
      | None -> Alcotest.fail "no slowest span on a serve cell"
      | Some sp ->
          Reqtrace.iter_sampled r.E.r_reqtrace (fun s ->
              check_bool "slowest is an upper bound" true
                (s.Reqtrace.sp_response <= sp.Reqtrace.sp_response)))
    (Serve.results t)

(* Byte-equality of the serialized metrics at --jobs 1 vs --jobs 8: the
   "blame" object rides in every serve cell, and every table [memhog
   serve] prints is drawn from this document. *)
let render_metrics t =
  Mio.to_string
    (Mio.metrics_json (Metrics.of_results ~label:"blame" (Serve.results t)))

let test_jobs_determinism () =
  let serial = run_grid ~jobs:1 () and pooled = run_grid ~jobs:8 () in
  check_str "metrics (with blame) jobs 1 == jobs 8" (render_metrics serial)
    (render_metrics pooled)

(* The rows of the rendered table titled [title], each as its trimmed
   cells. *)
let table_rows text title =
  let rec find = function
    | l :: _header :: _rule :: rest when l = title -> rows rest
    | _ :: rest -> find rest
    | [] -> Alcotest.failf "no table %S in the render" title
  and rows = function
    | l :: rest when l <> "" ->
        List.map String.trim (String.split_on_char '|' l) :: rows rest
    | _ -> []
  in
  find (String.split_on_char '\n' text)

(* The render of the grid's document prints, on each cell's row, the
   prefetch race and the tail bands' shares that its blame summary
   holds. *)
let test_render_blame_figures () =
  let t = Lazy.force grid in
  let text = Result.get_ok (Mio.render (Mio.metrics_json (Serve.metrics t))) in
  let race = table_rows text "Prefetch race and demand-disk attribution"
  and shares = table_rows text "Tail blame shares (p99 and beyond)" in
  List.iter
    (fun ((c : Serve.cell), (r : E.result)) ->
      let name =
        Printf.sprintf "MATVEC/%s @ 3840 rps"
          (E.variant_name c.Serve.sc_variant)
      in
      let row rows =
        match List.filter (fun row -> List.hd row = name) rows with
        | [ row ] -> List.tl row
        | rows -> Alcotest.failf "%d rows named %S" (List.length rows) name
      in
      let b = Reqtrace.summarize r.E.r_reqtrace in
      (match row race with
      | _sampled :: hidden :: lost :: _ ->
          check_str (name ^ " pf hidden")
            (Report.count b.Reqtrace.su_pf_hidden)
            hidden;
          check_str (name ^ " pf lost") (Report.count b.Reqtrace.su_pf_lost) lost
      | _ -> Alcotest.failf "short race row for %S" name);
      let tail =
        List.filter
          (fun (bd : Reqtrace.band) -> bd.Reqtrace.bd_label <> "body")
          b.Reqtrace.su_bands
      in
      let sum f = List.fold_left (fun a bd -> a + f bd) 0 tail in
      let resp = sum (fun bd -> bd.Reqtrace.bd_response) in
      check_bool (name ^ " has a tail") true (resp > 0);
      let share f =
        Report.pct (float_of_int (sum f) /. float_of_int resp)
      in
      Alcotest.(check (list string))
        (name ^ " tail requests and shares")
        [
          Report.count (sum (fun bd -> bd.Reqtrace.bd_count));
          share (fun bd -> bd.Reqtrace.bd_queue);
          share (fun bd -> bd.Reqtrace.bd_index);
          share (fun bd -> bd.Reqtrace.bd_value);
          share (fun bd -> bd.Reqtrace.bd_cpu);
          share (fun bd -> bd.Reqtrace.bd_compute);
        ]
        (row shares))
    (Serve.cells t)

(* The slowest request's exported critical path is valid JSON with the
   request slice and the five component slices. *)
let test_blame_span_export () =
  let t = Lazy.force grid in
  let r = List.hd (Serve.results t) in
  match Reqtrace.slowest r.E.r_reqtrace with
  | None -> Alcotest.fail "no slowest span"
  | Some sp ->
      let doc = Memhog_core.Trace_export.blame_span_to_chrome_json sp in
      (match Mio.parse doc with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("export is not valid JSON: " ^ e));
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i =
          i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun needle ->
          check_bool (Printf.sprintf "export mentions %S" needle) true
            (contains needle doc))
        [ "req key="; "traceEvents" ];
      (* zero-duration components are elided; every nonzero one must
         render as a slice *)
      let open Reqtrace in
      List.iter
        (fun (name, dur) ->
          if dur > 0 then
            check_bool (Printf.sprintf "nonzero component %S rendered" name)
              true
              (contains (Printf.sprintf "\"name\":\"%s\"" name) doc))
        [
          ("queue", sp.sp_queue); ("index", sp.sp_index);
          ("value", sp.sp_value); ("cpu wait", sp.sp_cpu);
          ("compute", sp.sp_compute);
        ]

(* ------------------------------------------------------------------ *)
(* slo_attainment zero-recorded regression                             *)
(* ------------------------------------------------------------------ *)

(* A cell that recorded nothing attained nothing: 0.0, not a vacuous 1.0.
   (Regression test for the sm_recorded = 0 division guard.) *)
let test_slo_attainment_zero_recorded () =
  let s =
    {
      Server.sm_offered_rps = 100.0;
      sm_duration = Time_ns.sec 1;
      sm_slo = Time_ns.ms 30;
      sm_arrived = 5;
      sm_completed = 5;
      sm_recorded = 0;
      sm_max_queue = 1;
      sm_slo_ok = 0;
      sm_mark = None;
      sm_post_recorded = 0;
      sm_post_slo_ok = 0;
      sm_hist = Histogram.create ();
    }
  in
  Alcotest.(check (float 0.0))
    "zero recorded -> 0.0 attainment" 0.0
    (Server.slo_attainment s)

let () =
  Alcotest.run "memhog_blame"
    [
      ( "reqtrace",
        [
          Alcotest.test_case "exact synthetic decomposition" `Quick
            test_synthetic_exact;
          Alcotest.test_case "warmup spans leave no mark" `Quick
            test_warmup_not_committed;
          Alcotest.test_case "unseen pids and vpns read as absent" `Quick
            test_unseen_reads_absent;
          Alcotest.test_case "prefetch I/O keyed by address space" `Quick
            test_prefetch_io_keyed_by_owner;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_synthetic_additivity ]
      );
      ( "grid",
        [
          Alcotest.test_case "additivity and books on real traffic" `Quick
            test_grid_additivity_and_books;
          Alcotest.test_case "jobs determinism (blame included)" `Quick
            test_jobs_determinism;
          Alcotest.test_case "slowest-request trace export" `Quick
            test_blame_span_export;
          Alcotest.test_case "render prints each cell's blame figures" `Quick
            test_render_blame_figures;
        ] );
      ( "server",
        [
          Alcotest.test_case "slo attainment 0 when nothing recorded" `Quick
            test_slo_attainment_zero_recorded;
        ] );
    ]
