open Memhog_sim
module Os = Memhog_vm.Os
module As = Memhog_vm.Address_space
module Vm_stats = Memhog_vm.Vm_stats

type sweep = {
  sw_index : int;
  sw_response : Time_ns.t;
  sw_hard_faults : int;
  sw_soft_faults : int;
}

type t = {
  os : Os.t;
  it_asp : As.t;
  seg : As.segment;
  sleep : Time_ns.t;
  work_per_page_ns : Time_ns.t;
  mutable sweep_list : sweep list; (* newest first *)
  mutable proc : Engine.proc option; (* set by [spawn] *)
}

let create ?(data_bytes = 1024 * 1024) ?(work_per_page_ns = Time_ns.us 50) ~os
    ~sleep () =
  let it_asp = Os.new_process os ~name:"interactive" in
  let seg =
    Os.map_segment os it_asp ~name:"interactive-data" ~bytes:data_bytes
      ~on_swap:true
  in
  { os; it_asp; seg; sleep; work_per_page_ns; sweep_list = []; proc = None }

let asp t = t.it_asp
let sweeps t = List.rev t.sweep_list
let account t = Option.map (fun p -> p.Engine.account) t.proc

let alone_response t = t.seg.As.npages * t.work_per_page_ns

(* Sweep [index]'s phase boundary; the name is built only when the bus
   is on. *)
let emit_phase t ~begin_ index =
  let obs = Os.obs t.os in
  if Obs.on obs then begin
    let name = Printf.sprintf "sweep-%d" index in
    Obs.emit obs ~time:(Engine.now ()) ~stream:t.it_asp.As.pid
      (if begin_ then Trace.Phase_begin { name } else Trace.Phase_end { name })
  end

let loop t () =
  let index = ref 0 in
  while true do
    let t0 = Engine.now () in
    let hard0 = t.it_asp.As.stats.Vm_stats.hard_faults in
    let soft0 = t.it_asp.As.stats.Vm_stats.soft_faults in
    emit_phase t ~begin_:true !index;
    for p = 0 to t.seg.As.npages - 1 do
      ignore (Os.touch t.os t.it_asp ~vpn:(t.seg.As.base_vpn + p) ~write:false);
      Engine.delay ~cat:Account.User t.work_per_page_ns
    done;
    emit_phase t ~begin_:false !index;
    let sweep =
      {
        sw_index = !index;
        sw_response = Engine.now () - t0;
        sw_hard_faults = t.it_asp.As.stats.Vm_stats.hard_faults - hard0;
        sw_soft_faults = t.it_asp.As.stats.Vm_stats.soft_faults - soft0;
      }
    in
    t.sweep_list <- sweep :: t.sweep_list;
    incr index;
    Engine.delay ~cat:Account.Sleep t.sleep
  done

let spawn t =
  let p = Engine.spawn (Os.engine t.os) ~name:"interactive" (loop t) in
  t.proc <- Some p;
  p

(* Statistics skip the first sweep, which absorbs the initial demand
   paging. *)
let warm s = s.sw_index >= 1

let stats_over t f =
  let usable = List.filter warm (sweeps t) in
  match usable with
  | [] -> None
  | l ->
      let sum = List.fold_left (fun acc s -> acc +. f s) 0.0 l in
      Some (sum /. float_of_int (List.length l))

let avg_response t =
  stats_over t (fun s -> float_of_int s.sw_response)
  |> Option.map (fun avg -> int_of_float (Float.round avg))

let avg_hard_faults t = stats_over t (fun s -> float_of_int s.sw_hard_faults)

let response_histogram t =
  let h = Histogram.create () in
  List.iter (fun s -> if warm s then Histogram.record h s.sw_response) (sweeps t);
  h
