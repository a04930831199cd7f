(* The benchmark's three workloads, built only from the public
   [Experiment.setup]/[run] API, plus the correctness oracle every run must
   pass: a deterministic work digest and three structural checks. *)

open Memhog_sim
module E = Memhog_core.Experiment
module Machine = Memhog_core.Machine
module Workload = Memhog_workloads.Workload
module Pir = Memhog_compiler.Pir
module Compile = Memhog_compiler.Compile
module VS = Memhog_vm.Vm_stats
module Server = Memhog_exec.Server

let default_seed = 42

(* The observation sinks a cell can switch through its setup flags.  The
   per-request blame layer has no flag: it is on exactly in serve mode. *)
type sinks = { ledger : bool; trace : bool; telemetry : bool }

let sinks_off = { ledger = false; trace = false; telemetry = false }
let sinks_on = { ledger = true; trace = true; telemetry = true }

type t = {
  name : string;
  sinks : sinks;  (** the sink set the workload is defined with *)
  cells : seed:int -> sinks -> E.setup list;
      (** one run = these cells in order.  Built fresh per run: a trace
          ring is per-run state. *)
  digest_42 : string;  (** recorded {!digest} at {!default_seed} *)
}

let with_seed seed m = { m with Machine.m_seed = seed }

let setup ~machine ~workload ~variant ?serve sinks =
  E.setup ~machine ~workload:(Workload.find workload) ~variant ?serve
    ~ledger_on:sinks.ledger
    ?trace:(if sinks.trace then Some (Trace.create ()) else None)
    ~telemetry:sinks.telemetry ()

let batch_compute =
  {
    name = "batch-compute";
    sinks = sinks_off;
    cells =
      (fun ~seed sinks ->
        [
          setup ~machine:(with_seed seed Machine.quick) ~workload:"CGM"
            ~variant:E.P sinks;
        ]);
    digest_42 = "3500844/263/1063/19379655660/5749/158/0/0";
  }

let paging =
  {
    name = "paging";
    sinks = sinks_off;
    cells =
      (fun ~seed sinks ->
        let machine = with_seed seed Machine.paper in
        List.map
          (fun variant -> setup ~machine ~workload:"MATVEC" ~variant sinks)
          [ E.O; E.B ]);
    digest_42 =
      "557020/76336/144/114765194120/76336/10/0/0;\
       1884523/56/0/16698887660/76328/4/0/0";
  }

let serve_rate_rps = 3200.0

let serve_observed =
  {
    name = "serve-observed";
    sinks = sinks_on;
    cells =
      (fun ~seed sinks ->
        let machine = with_seed seed Machine.quick in
        let serve =
          E.serve_cfg ~machine ~duration:(Time_ns.sec 60)
            ~rate_rps:serve_rate_rps ()
        in
        [
          setup ~machine ~workload:"MATVEC" ~variant:E.B ~serve sinks;
        ]);
    digest_42 = "3337983/1306/11/59198508451/77524/0/191961/191961";
  }

let all = [ batch_compute; paging; serve_observed ]
let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Set-up work the benchmark does itself                               *)
(* ------------------------------------------------------------------ *)

let pir_variant = function
  | E.O -> Pir.V_original
  | E.P -> Pir.V_prefetch
  | E.R | E.B -> Pir.V_release

(* The IR build and compile [Experiment.run] repeats internally, done here
   so the compiler layer can be timed and its directive count read. *)
let compile (s : E.setup) =
  let m = s.E.machine in
  let ir, _params =
    s.E.workload.Workload.w_make ~mem_bytes:(Machine.mem_bytes m)
      ~page_bytes:m.Machine.m_config.Memhog_vm.Config.page_bytes
  in
  Compile.compile
    ~target:(Machine.compiler_target m)
    ~conservative:s.E.conservative ~variant:(pir_variant s.E.variant) ir

let directives (p : Pir.prog) =
  p.Pir.px_stats.Pir.gs_prefetch_sites + p.Pir.px_stats.Pir.gs_release_sites

(* ------------------------------------------------------------------ *)
(* Correctness oracle                                                  *)
(* ------------------------------------------------------------------ *)

let serving (r : E.result) =
  match r.E.r_serving with
  | Some s -> (s.Server.sm_arrived, s.Server.sm_completed)
  | None -> (0, 0)

(* The deterministic work of one cell: events, hard and soft faults,
   simulated ns, swap reads and writes, serving arrived and completed. *)
let cell_digest (r : E.result) =
  let arrived, completed = serving r in
  String.concat "/"
    (List.map string_of_int
       [
         r.E.r_events_executed;
         r.E.r_app_stats.VS.hard_faults;
         r.E.r_app_stats.VS.soft_faults;
         r.E.r_elapsed;
         r.E.r_swap_reads;
         r.E.r_swap_writes;
         arrived;
         completed;
       ])

let digest results = String.concat ";" (List.map cell_digest results)

(* The ledger sees every process; the VM's per-process counters see one.
   Counters only the hog moves (releases) reconcile against its own stats;
   completed prefetches of every process reconcile against the kernel's
   prefetch service-time histogram, which records each one. *)
let ledger_mismatches (r : E.result) =
  let module L = Ledger in
  let l = r.E.r_ledger in
  let s = r.E.r_app_stats in
  let pairs =
    [
      ("releases freed", l.L.ls_releases_freed, s.VS.freed_by_releaser);
      ("releases skipped", l.L.ls_releases_skipped, s.VS.releases_skipped);
      ( "prefetches completed",
        List.fold_left (fun a row -> a + row.L.sr_pf_done) 0 l.L.ls_sites,
        Histogram.count r.E.r_prefetch_hist );
    ]
  in
  List.filter_map
    (fun (name, lv, vv) ->
      if lv = vv then None
      else Some (Printf.sprintf "ledger %s %d <> vm %d" name lv vv))
    pairs
  @ if L.invariants_ok l then [] else [ "ledger summary invariants" ]

(* Every failed check of one cell, empty when the cell is correct. *)
let cell_failures ~ledger (r : E.result) =
  let arrived, completed = serving r in
  (if r.E.r_invariants_ok then [] else [ "OS invariants" ])
  @ (if arrived = completed then []
     else [ Printf.sprintf "requests arrived %d <> completed %d" arrived completed ])
  @ if ledger then ledger_mismatches r else []

(* The checks of one run: every cell's failures, plus the digest against
   the recorded one at the default seed.  [None] means correct. *)
let check w ~seed ~sinks results =
  let d = digest results in
  let failures =
    List.concat_map (cell_failures ~ledger:sinks.ledger) results
    @
    if seed = default_seed && d <> w.digest_42 then
      [ Printf.sprintf "digest %s, recorded %s" d w.digest_42 ]
    else []
  in
  match failures with [] -> None | fs -> Some (String.concat "; " fs)
