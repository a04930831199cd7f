(* Per-layer drivers: small fixed programs that call one layer's public
   API directly and time each call (host ns, minor words, and the engine
   events the call ran while its fiber was blocked).  They give the unit
   costs the per-layer attribution multiplies by the workload's counts. *)

open Memhog_sim
module Os = Memhog_vm.Os
module As = Memhog_vm.Address_space
module Config = Memhog_vm.Config
module Machine = Memhog_core.Machine
module E = Memhog_core.Experiment
module Swap = Memhog_disk.Swap
module Backend = Memhog_disk.Backend
module Zram = Memhog_disk.Zram
module Farmem = Memhog_disk.Farmem
module Runtime = Memhog_runtime.Runtime
module App = Memhog_exec.App
module Workload = Memhog_workloads.Workload
module Pir = Memhog_compiler.Pir
module Compile = Memhog_compiler.Compile

(* Running totals of the calls charged to one bucket. *)
type acc = {
  mutable calls : int;
  mutable ns : int;
  mutable words : float;
  mutable events : int;
}

let acc () = { calls = 0; ns = 0; words = 0.0; events = 0 }

(* Per-call averages of an [acc]. *)
type cost = { ns_per : float; words_per : float; events_per : float; n : int }

let zero_cost = { ns_per = 0.0; words_per = 0.0; events_per = 0.0; n = 0 }

(* [items] (default: one per call) is what the costs are averaged over,
   for spans that each cover several calls or pages. *)
let cost ?items a =
  let items = Option.value items ~default:a.calls in
  if items = 0 then zero_cost
  else
    let d = float_of_int items in
    {
      ns_per = float_of_int a.ns /. d;
      words_per = a.words /. d;
      events_per = float_of_int a.events /. d;
      n = items;
    }

(* The last span [span] measured, read back by [charge]. *)
let last_ns = ref 0
let last_words = ref 0.0
let last_events = ref 0

let span ?engine f =
  let e0 = match engine with Some e -> Engine.events_executed e | None -> 0 in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let r = f () in
  let t1 = Clock.now_ns () in
  last_words := Gc.minor_words () -. w0;
  last_ns := t1 - t0;
  last_events :=
    (match engine with Some e -> Engine.events_executed e - e0 | None -> 0);
  r

let charge a =
  a.calls <- a.calls + 1;
  a.ns <- a.ns + !last_ns;
  a.words <- a.words +. !last_words;
  a.events <- a.events + !last_events

let timed ?engine a f =
  let r = span ?engine f in
  charge a;
  r

(* Cheap calls are timed in blocks, so the clock's own cost is spread over
   [per] calls; [f i] makes the [i]th call. *)
let blocks ~count ~per a f =
  for b = 0 to count - 1 do
    timed a (fun () ->
        for i = b * per to ((b + 1) * per) - 1 do
          f i
        done)
  done

(* Run [body] as the only application fiber of [engine], then stop the
   engine, even when [body] raises: kernel daemons would otherwise keep it
   alive. *)
let run_fiber engine body =
  ignore
    (Engine.spawn engine ~name:"driver" (fun () ->
         Fun.protect ~finally:Engine.stop body));
  Engine.run engine;
  match Engine.crashes engine with
  | [] -> ()
  | (name, e) :: _ ->
      failwith
        (Printf.sprintf "driver fiber %s crashed: %s" name (Printexc.to_string e))

let quick_os engine =
  Os.create ~swap_config:Machine.quick.Machine.m_swap
    ~config:Machine.quick.Machine.m_config ~engine ()

(* ------------------------------------------------------------------ *)
(* engine: dispatch, heap, semaphore                                   *)
(* ------------------------------------------------------------------ *)

(* Synthetic fibers alternating [delay] with [suspend] + [wake_after]. *)
let engine_program ~fibers ~steps =
  let e = Engine.create () in
  for i = 1 to fibers do
    ignore
      (Engine.spawn e ~name:"synthetic" (fun () ->
           for k = 1 to steps do
             if k land 1 = 0 then
               Engine.delay ~cat:Account.User (Time_ns.ns (i + (k land 7)))
             else Engine.suspend (fun w -> Engine.wake_after e (Time_ns.ns i) w)
           done))
  done;
  e

type engine_cost = { dispatch : cost; events : int }

let engine ?(fibers = 64) ?(steps = 4000) () =
  let e = engine_program ~fibers ~steps in
  let a = acc () in
  timed a (fun () -> Engine.run e);
  let events = Engine.events_executed e in
  { dispatch = cost ~items:events a; events }

let semaphore () =
  let count = 200 and per = 1000 in
  let e = Engine.create () in
  let s = Semaphore.create 1 in
  let a = acc () in
  run_fiber e (fun () ->
      blocks ~count ~per a (fun _ ->
          Semaphore.acquire s;
          Semaphore.release s));
  cost ~items:(count * per) a

(* ------------------------------------------------------------------ *)
(* interp: App.exec_main with the whole footprint resident             *)
(* ------------------------------------------------------------------ *)

type interp_cost = {
  touch : cost;  (** per page touch, engine events included *)
  touches_per_pass : int;
  hard_faults : int;  (** taken during the timed passes: 0 by design *)
}

(* The cell's program, compiled without directives, on its own machine
   grown until the data set fits twice over: after one warm pass every
   touch is [Fast], so a timed pass measures the interpreter itself. *)
let interp ?(passes = 2) (s : E.setup) =
  let m = s.E.machine in
  let page_bytes = m.Machine.m_config.Config.page_bytes in
  let mem_bytes = Machine.mem_bytes m in
  let w = s.E.workload in
  let footprint =
    Workload.data_set_bytes w ~mem_bytes ~page_bytes / page_bytes
  in
  let config =
    { m.Machine.m_config with Config.total_frames = (2 * footprint) + 1024 }
  in
  let ir, params = w.Workload.w_make ~mem_bytes ~page_bytes in
  let prog =
    Compile.compile ~target:(Machine.compiler_target m)
      ~variant:Pir.V_original ir
  in
  let engine = Engine.create () in
  let os =
    Os.create ~swap_config:m.Machine.m_swap ~config ~engine ()
  in
  let app = App.create ~seed:m.Machine.m_seed ~os ~params prog in
  let a = acc () in
  let per_pass = ref 0 and hard = ref 0 in
  run_fiber engine (fun () ->
      App.exec_main app;
      let stats = (App.asp app).As.stats in
      let h0 = stats.Memhog_vm.Vm_stats.hard_faults in
      for _ = 1 to passes do
        let t0 = App.touched_pages app in
        timed ~engine a (fun () -> App.exec_main app);
        per_pass := App.touched_pages app - t0
      done;
      hard := stats.Memhog_vm.Vm_stats.hard_faults - h0);
  {
    touch = cost ~items:(passes * !per_pass) a;
    touches_per_pass = !per_pass;
    hard_faults = !hard;
  }

(* ------------------------------------------------------------------ *)
(* vm: Os.touch sweep, Os.release_request                              *)
(* ------------------------------------------------------------------ *)

type vm_cost = {
  hard : cost;
  fast : cost;
  other : cost;  (** touches returning neither [Hard] nor [Fast] *)
  release : cost;  (** per page released *)
}

(* One fiber sweeps a segment twice the size of memory, touching each page
   twice in a row: the first touch must come from swap, the second finds it
   resident.  Then it releases the pages it still holds. *)
let vm ?(sweeps = 2) () =
  let batch = 32 in
  let engine = Engine.create () in
  let os = quick_os engine in
  let asp = Os.new_process os ~name:"vm-driver" in
  let seg =
    Os.map_segment os asp ~name:"sweep"
      ~bytes:(2 * Machine.mem_bytes Machine.quick)
      ~on_swap:true
  in
  let hard = acc () and fast = acc () and other = acc () and rel = acc () in
  let released = ref 0 in
  run_fiber engine (fun () ->
      for _ = 1 to sweeps do
        for i = 0 to seg.As.npages - 1 do
          let vpn = seg.As.base_vpn + i in
          for _ = 1 to 2 do
            match span ~engine (fun () -> Os.touch os asp ~vpn ~write:false) with
            | Os.Hard -> charge hard
            | Os.Fast -> charge fast
            | _ -> charge other
          done
        done
      done;
      let resident =
        List.filter
          (fun vpn -> Os.page_resident asp ~vpn)
          (List.init seg.As.npages (fun i -> seg.As.base_vpn + i))
      in
      let rec go = function
        | [] -> ()
        | vpns ->
            let now = List.filteri (fun i _ -> i < batch) vpns in
            let rest = List.filteri (fun i _ -> i >= batch) vpns in
            let arr = Array.of_list now in
            timed ~engine rel (fun () -> Os.release_request os asp ~vpns:arr);
            go rest
      in
      go resident;
      released := List.length resident);
  {
    hard = cost hard;
    fast = cost fast;
    other = cost other;
    release = cost ~items:!released rel;
  }

(* ------------------------------------------------------------------ *)
(* runtime: Runtime.release_page under Buffered, plus drain            *)
(* ------------------------------------------------------------------ *)

let runtime () =
  let rounds = 4 in
  let engine = Engine.create () in
  let os = quick_os engine in
  let asp = Os.new_process os ~name:"rt-driver" in
  let npages = Machine.quick.Machine.m_config.Config.total_frames / 2 in
  let seg =
    Os.map_segment os asp ~name:"held"
      ~bytes:(npages * Machine.quick.Machine.m_config.Config.page_bytes)
      ~on_swap:false
  in
  let rt = Runtime.create ~os ~asp ~policy:Runtime.Buffered () in
  Runtime.start rt;
  let a = acc () in
  let pages = ref 0 in
  run_fiber engine (fun () ->
      for _ = 1 to rounds do
        for i = 0 to npages - 1 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:true)
        done;
        for i = 0 to npages - 1 do
          timed ~engine a (fun () ->
              (* A tag keeps one priority, as a directive site does. *)
              let tag = i mod 4 in
              Runtime.release_page rt ~vpn:(seg.As.base_vpn + i)
                ~priority:(1 + (tag mod 3))
                ~tag)
        done;
        timed ~engine a (fun () -> Runtime.drain rt);
        pages := !pages + npages
      done);
  cost ~items:!pages a

(* ------------------------------------------------------------------ *)
(* disk and tiers: blocking page reads                                 *)
(* ------------------------------------------------------------------ *)

let disk () =
  let reads = 2000 in
  let engine = Engine.create () in
  let swap =
    Swap.create ~config:Machine.quick.Machine.m_swap
      ~page_bytes:Machine.quick.Machine.m_config.Config.page_bytes ()
  in
  let a = acc () in
  run_fiber engine (fun () ->
      for i = 0 to reads - 1 do
        timed ~engine a (fun () -> Swap.read_page swap ~page:(i * 7919 mod 50_000))
      done);
  cost a

(* Backend.read_page on the compressed-RAM and far-memory tiers, each page
   written first so every read hits. *)
let tiers ?(pages = 400) () =
  let engine = Engine.create () in
  let page_bytes = Machine.quick.Machine.m_config.Config.page_bytes in
  let backends =
    [
      Zram.as_backend (Zram.create ~page_bytes ());
      Farmem.as_backend (Farmem.create ~engine ~page_bytes ());
    ]
  in
  let a = acc () in
  let misses = ref 0 in
  run_fiber engine (fun () ->
      List.iter
        (fun b ->
          for page = 0 to pages - 1 do
            ignore (Backend.write_page b ~page);
            match timed ~engine a (fun () -> Backend.read_page b ~page) with
            | Backend.R_ok _ -> ()
            | Backend.R_failed _ -> incr misses
          done)
        backends);
  if !misses > 0 then
    failwith (Printf.sprintf "tiers driver: %d reads missed" !misses);
  cost a

(* ------------------------------------------------------------------ *)
(* obs: trace ring, ledger, histogram, telemetry                       *)
(* ------------------------------------------------------------------ *)

let trace_emit () =
  let count = 200 and per = 1000 in
  let tr = Trace.create () in
  let a = acc () in
  blocks ~count ~per a (fun i ->
      Trace.emit tr ~time:i ~stream:1 (Trace.Hard_fault { vpn = i }));
  cost ~items:(count * per) a

(* A page lifecycle per vpn: prefetched, validated, released, freed,
   rescued, then hard-refaulted after a second free. *)
let ledger_observe () =
  let pages = 20_000 in
  let l = Ledger.create () in
  let owner = 1 and site = 3 in
  let lifecycle vpn =
    [|
      Trace.Rt_prefetch_sent { vpn; site };
      Trace.Prefetch_issued { vpn; site };
      Trace.Prefetch_done { vpn; site; ns = 1000 };
      Trace.Validation_fault { vpn };
      Trace.Rt_release_hint { vpn; site; priority = 1 };
      Trace.Rt_release_sent { vpn; site };
      Trace.Releaser_free { vpn; owner; site };
      Trace.Rescue { vpn; for_prefetch = false; site };
      Trace.Releaser_free { vpn; owner; site };
      Trace.Hard_fault { vpn };
    |]
  in
  let events = Array.concat (List.init pages lifecycle) in
  let per = Array.length (lifecycle 0) * 100 in
  let a = acc () in
  let count = Array.length events / per in
  blocks ~count ~per a (fun i ->
      Ledger.observe l ~time:i ~stream:owner events.(i));
  cost ~items:(count * per) a

let histogram_record () =
  let count = 200 and per = 1000 in
  let h = Histogram.create () in
  let rng = Rng.create ~seed:1 in
  let values = Array.init (count * per) (fun _ -> Rng.int rng 50_000_000) in
  let a = acc () in
  blocks ~count ~per a (fun i -> Histogram.record h values.(i));
  cost ~items:(count * per) a

(* A registry shaped like the serving cell's full probe set: twenty series
   and five windowed rules, scraped on the harness's 100 ms cadence. *)
let telemetry_scrape () =
  let scrapes = 5000 in
  let tl = Telemetry.create () in
  let level = ref 0.0 in
  for i = 0 to 9 do
    Telemetry.register_gauge tl ~name:(Printf.sprintf "gauge-%d" i) (fun () ->
        !level +. float_of_int i);
    Telemetry.register_counter tl ~name:(Printf.sprintf "counter-%d" i)
      (fun () -> !level *. float_of_int i)
  done;
  let rule name series signal =
    Telemetry.add_rule tl ~name ~series ~window:10 ~signal
      ~direction:Telemetry.Above ~fire:1e12 ~clear:0.0 ()
  in
  rule "mean" "gauge-0" Telemetry.Window_mean;
  rule "max" "gauge-1" Telemetry.Window_max;
  rule "rate" "counter-1" Telemetry.Window_rate;
  rule "ratio" "counter-2" (Telemetry.Window_ratio "counter-3");
  rule "last" "gauge-2" Telemetry.Last;
  let a = acc () in
  for k = 1 to scrapes do
    level := float_of_int k;
    timed a (fun () -> Telemetry.scrape tl ~time:(Time_ns.ms (100 * k)))
  done;
  cost a

(* The clock's own cost per span, subtracted from single-call spans. *)
let clock_overhead_ns () =
  let a = acc () in
  for _ = 1 to 10_000 do
    timed a ignore
  done;
  (cost a).ns_per
