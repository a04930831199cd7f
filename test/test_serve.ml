(* Tests for the serving experiment grid: the headline tail-latency physics
   (buffered release beats the un-released hog on p999 past the knee) and
   the open-loop server's bookkeeping invariants.  Byte-identical metrics
   at any --jobs are pinned by test_blame on the same grid. *)

open Memhog_sim
module E = Memhog_core.Experiment
module Figures = Memhog_core.Figures
module Machine = Memhog_core.Machine
module Serve = Memhog_core.Serve
module Server = Memhog_exec.Server

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* One grid at a load past the quick machine's knee, short enough for CI
   but long enough that p999 rests on thousands of recorded responses. *)
let grid =
  lazy
    (let cells, read =
       Serve.plan ~machine:Machine.quick ~rates:[ 3840.0 ]
         ~duration:(Time_ns.sec 10) ()
     in
     read (Figures.simulate ~jobs:2 cells))

let find_cell t v =
  let _, r =
    List.find (fun ((c : Serve.cell), _) -> c.Serve.sc_variant = v)
      (Serve.cells t)
  in
  Serve.serving_exn r

(* Past the knee the un-released hog's page stealing outruns the server's
   self-healing re-prefetches; buffered release keeps the free pool
   healthy.  This is the experiment's reason to exist, so pin it. *)
let test_b_beats_o_on_p999 () =
  let t = Lazy.force grid in
  let o = find_cell t E.O and b = find_cell t E.B in
  let p999 s = Histogram.percentile s.Server.sm_hist 99.9 in
  check_bool
    (Printf.sprintf "B p999 (%s) < O p999 (%s)"
       (Time_ns.to_string (p999 b))
       (Time_ns.to_string (p999 o)))
    true
    (p999 b < p999 o);
  check_bool "B SLO attainment >= O's" true
    (Server.slo_attainment b >= Server.slo_attainment o)

(* Open-loop bookkeeping: every arrival is eventually served (the driver
   drains the queue before stopping), and the histogram holds exactly the
   post-warmup completions. *)
let test_summary_conserves_requests () =
  let t = Lazy.force grid in
  List.iter
    (fun (_, r) ->
      let s = Serve.serving_exn r in
      check_int "served == arrived" s.Server.sm_arrived s.Server.sm_completed;
      check_bool "histogram excludes only warmup" true
        (s.Server.sm_recorded <= s.Server.sm_completed
        && s.Server.sm_recorded > 0);
      check_bool "slo_ok bounded by recorded" true
        (s.Server.sm_slo_ok >= 0 && s.Server.sm_slo_ok <= s.Server.sm_recorded);
      check_bool "queue depth observed" true (s.Server.sm_max_queue >= 1))
    (Serve.cells t)

let test_unknown_hog_rejected () =
  let cells, _ = Serve.plan ~workload:"nope" ~rates:[ 100.0 ] () in
  check_bool "simulating an unknown hog raises" true
    (match Figures.simulate cells with
    | _ -> false
    | exception Failure msg ->
        (* the error must name the offender and the valid set *)
        let contains needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        contains "nope" msg && contains "MATVEC" msg)

let () =
  Alcotest.run "memhog_serve"
    [
      ( "serve",
        [
          Alcotest.test_case "B beats O on p999" `Quick test_b_beats_o_on_p999;
          Alcotest.test_case "request conservation" `Quick
            test_summary_conserves_requests;
          Alcotest.test_case "unknown hog rejected" `Quick
            test_unknown_hog_rejected;
        ] );
    ]
