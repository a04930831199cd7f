open Memhog_sim

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable rejects : int;
}

let fresh_stats () =
  { reads = 0; writes = 0; timeouts = 0; retries = 0; rejects = 0 }

type read_result = R_ok of int | R_failed of int
type write_result = W_ok of int | W_rejected of int

type t = {
  name : string;
  read :
    cat:Account.category -> background:bool -> site:int -> page:int ->
    read_result;
  write :
    cat:Account.category -> background:bool -> site:int -> page:int ->
    write_result;
  stats : stats;
}

let name t = t.name
let stats t = t.stats

let read_page ?(cat = Account.Io_stall) ?(background = false)
    ?(site = Trace.no_site) t ~page =
  t.read ~cat ~background ~site ~page

let write_page ?(cat = Account.Io_stall) ?(background = false)
    ?(site = Trace.no_site) t ~page =
  t.write ~cat ~background ~site ~page

