open Memhog_sim

type params = {
  capacity_bytes : int;
  compress_ns_per_kb : Time_ns.t;
  decompress_ns_per_kb : Time_ns.t;
}

(* LZO-class software compression on a circa-2000 CPU: a few hundred ns
   per KB each way, budgeted against a RAM carve-out. *)
let default_params =
  {
    capacity_bytes = 16 * 1024 * 1024;
    compress_ns_per_kb = 900;
    decompress_ns_per_kb = 400;
  }

type t = {
  params : params;
  page_bytes : int;
  stats : Backend.stats;
  table : (int, int) Hashtbl.t;  (* page -> compressed bytes *)
  mutable used_bytes : int;
  mutable stored_uncompressed : int;  (* lifetime bytes accepted, pre-compression *)
}

let create ?(params = default_params) ~page_bytes () =
  if params.capacity_bytes < page_bytes then
    invalid_arg "Zram.create: capacity below one page";
  {
    params;
    page_bytes;
    stats = Backend.fresh_stats ();
    table = Hashtbl.create 1024;
    used_bytes = 0;
    stored_uncompressed = 0;
  }

(* Per-page compressibility, drawn deterministically from the releasing
   directive's site id mixed with the page number: pages released by the
   same static site share a compressibility regime (arrays of similar data),
   individual pages scatter around it.  Pure integer mixing — no RNG state,
   so replays and --jobs levels agree byte-for-byte. *)
let ratio ~site ~page =
  let h = ((site + 2) * 0x9E3779B9) lxor (page * 0x85EBCA6B) in
  let h = (h lxor (h lsr 16)) * 0x45D9F3B in
  let h = (h lxor (h lsr 13)) land 0x3FF in
  0.15 +. (0.75 *. (float_of_int h /. 1023.0))

let compressed_bytes t ~site ~page =
  int_of_float (ratio ~site ~page *. float_of_int t.page_bytes)

let stats t = t.stats
let stored_pages t = Hashtbl.length t.table
let capacity_bytes t = t.params.capacity_bytes

(* Capacity amplification over the live table: uncompressed bytes held per
   byte of carve-out actually consumed. *)
let amplification t =
  if t.used_bytes = 0 then 1.0
  else
    float_of_int (Hashtbl.length t.table * t.page_bytes)
    /. float_of_int t.used_bytes

let write_page ?(cat = Account.Io_stall) ?background:_ ?(site = Trace.no_site)
    t ~page =
  t.stats.Backend.writes <- t.stats.Backend.writes + 1;
  let size = compressed_bytes t ~site ~page in
  let old = Option.value (Hashtbl.find_opt t.table page) ~default:0 in
  if t.used_bytes - old + size > t.params.capacity_bytes then begin
    t.stats.Backend.rejects <- t.stats.Backend.rejects + 1;
    Backend.W_rejected 1
  end
  else begin
    (* compression works over the uncompressed input *)
    Engine.delay ~cat (t.params.compress_ns_per_kb * (t.page_bytes / 1024));
    Hashtbl.replace t.table page size;
    t.used_bytes <- t.used_bytes - old + size;
    t.stored_uncompressed <- t.stored_uncompressed + t.page_bytes;
    Backend.W_ok 1
  end

(* Loads are exclusive (the entry is consumed): a page is either resident
   in RAM or compressed in the carve-out, never both. *)
let read_page ?(cat = Account.Io_stall) ?background:_ t ~page =
  t.stats.Backend.reads <- t.stats.Backend.reads + 1;
  match Hashtbl.find_opt t.table page with
  | None -> Backend.R_failed 1
  | Some size ->
      Engine.delay ~cat (t.params.decompress_ns_per_kb * (t.page_bytes / 1024));
      Hashtbl.remove t.table page;
      t.used_bytes <- t.used_bytes - size;
      Backend.R_ok 1

let contains t ~page = Hashtbl.mem t.table page

(* Discard a stored page without reading it (no decompression cost): the
   RAM copy was re-created by some other route and this one is stale. *)
let drop t ~page =
  match Hashtbl.find_opt t.table page with
  | None -> ()
  | Some size ->
      Hashtbl.remove t.table page;
      t.used_bytes <- t.used_bytes - size

let as_backend t =
  {
    Backend.name = "zram";
    read = (fun ~cat ~background ~site:_ ~page -> read_page ~cat ~background t ~page);
    write =
      (fun ~cat ~background ~site ~page -> write_page ~cat ~background ~site t ~page);
    stats = t.stats;
  }
