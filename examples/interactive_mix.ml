(* The motivating experiment of section 1.1: an "interactive" task (touch
   1 MB, sleep, repeat) shares the machine with an out-of-core program.

     dune exec examples/interactive_mix.exe [-- SLEEP_SECONDS]

   Without releases the interactive task's response time explodes once its
   sleep time exceeds the paging daemon's clock cycle — prefetching makes
   it far worse — and compiler-inserted releases restore it to the
   stand-alone level (Figures 1 and 10a). *)

open Memhog_core
module Time_ns = Memhog_sim.Time_ns

let () =
  let sleep_s =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 2.0
  in
  let machine = Machine.quick in
  let sleep = Time_ns.of_sec_f sleep_s in
  let workload = Memhog_workloads.Workload.find "MATVEC" in
  Format.printf
    "interactive task: touch 1 MB, sleep %.1fs, repeat — co-running with \
     out-of-core MATVEC@.@."
    sleep_s;
  let runs =
    List.map
      (fun variant ->
        ( variant,
          Experiment.run
            (Experiment.setup ~machine ~interactive_sleep:sleep ~workload
               ~variant ()) ))
      Experiment.all_variants
  in
  let interactive (r : Experiment.result) =
    Option.get r.Experiment.r_interactive
  in
  Format.printf "%-24s %14s %12s@." "out-of-core variant" "response" "faults/sweep";
  (* Every co-run reports the task's response with the machine to itself. *)
  Format.printf "%-24s %14s %12s@." "(none: machine to itself)"
    (Time_ns.to_string
       (interactive (snd (List.hd runs))).Experiment.is_alone_response)
    "0.0";
  List.iter
    (fun (variant, r) ->
      let i = interactive r in
      Format.printf "%-24s %14s %12s@."
        (Experiment.variant_name variant)
        (match i.Experiment.is_avg_response with
        | Some t -> Time_ns.to_string t
        | None -> "-")
        (match i.Experiment.is_avg_hard_faults with
        | Some f -> Printf.sprintf "%.1f" f
        | None -> "-");
      let tl = r.Experiment.r_telemetry in
      match Memhog_sim.Telemetry.summary_of tl "inter-rss" with
      | Some _ ->
          Format.printf "  resident set over time: |%s|@."
            (Memhog_sim.Telemetry.sparkline ~width:48 tl "inter-rss")
      | None -> ())
    runs;
  Format.printf
    "@.(flat sparkline = the task kept its memory; sawtooth = the hog kept \
     stealing it)@."
