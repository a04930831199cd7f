type config = {
  num_disks : int;
  disks_per_controller : int;
  disk_params : Disk.params;
}

let default_config =
  { num_disks = 10; disks_per_controller = 2; disk_params = Disk.cheetah_4lp }

type t = {
  config : config;
  page_bytes : int;
  disk_array : Disk.t array;
  mutable page_reads : int;
  mutable page_writes : int;
}

let create ?(config = default_config) ?chaos ?obs ~page_bytes () =
  if config.num_disks < 1 then invalid_arg "Swap.create: need at least one disk";
  if config.disks_per_controller < 1 then
    invalid_arg "Swap.create: need at least one disk per controller";
  (* one SCSI adapter per [disks_per_controller] consecutive disks *)
  let ncontrollers =
    (config.num_disks + config.disks_per_controller - 1)
    / config.disks_per_controller
  in
  let buses =
    Array.init ncontrollers (fun i ->
        Memhog_sim.Semaphore.create ~name:(Printf.sprintf "scsi%d" i) 1)
  in
  {
    config;
    page_bytes;
    disk_array =
      Array.init config.num_disks (fun id ->
          Disk.create ~params:config.disk_params
            ~bus:buses.(id / config.disks_per_controller)
            ?chaos ?obs ~id ());
    page_reads = 0;
    page_writes = 0;
  }

let num_disks t = t.config.num_disks

(* Page [page] lives on disk [page mod n] at block [page / n]. *)
let request t ~cat ~background ~write ~page =
  let n = t.config.num_disks in
  Disk.request t.disk_array.(page mod n) ~cat ~background ~write
    ~block:(page / n) ~bytes:t.page_bytes

let read t ~cat ~background ~page =
  t.page_reads <- t.page_reads + 1;
  request t ~cat ~background ~write:false ~page

let write t ~cat ~background ~page =
  t.page_writes <- t.page_writes + 1;
  request t ~cat ~background ~write:true ~page

let read_page ?(cat = Memhog_sim.Account.Io_stall) ?(background = false) t
    ~page =
  read t ~cat ~background ~page

let write_page ?(cat = Memhog_sim.Account.Io_stall) ?(background = false) t
    ~page =
  write t ~cat ~background ~page

let page_reads t = t.page_reads
let page_writes t = t.page_writes
let disks t = t.disk_array
let total_busy_time t =
  Array.fold_left (fun acc d -> acc + Disk.busy_time d) 0 t.disk_array

let queue_depth t =
  Array.fold_left (fun acc d -> acc + Disk.queue_depth d) 0 t.disk_array

let total_timeouts t =
  Array.fold_left (fun acc d -> acc + Disk.timeouts d) 0 t.disk_array
