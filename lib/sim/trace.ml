type event =
  | Hard_fault of { vpn : int }
  | Soft_fault of { vpn : int }
  | Validation_fault of { vpn : int }
  | Zero_fill of { vpn : int }
  | Rescue of { vpn : int; for_prefetch : bool; site : int }
  | Prefetch_issued of { vpn : int; site : int }
  | Prefetch_dropped of { vpn : int; site : int }
  | Prefetch_raced of { vpn : int; site : int }
  | Prefetch_done of { vpn : int; site : int; ns : int }
  | Daemon_steal of { vpn : int; owner : int }
  | Daemon_invalidate of { vpn : int; owner : int }
  | Releaser_free of { vpn : int; owner : int; site : int }
  | Release_requested of { owner : int; count : int }
  | Release_skipped of { vpn : int; owner : int; site : int }
  | Writeback_complete of { vpn : int; owner : int }
  | Frame_reused of { vpn : int; owner : int }
  | Rt_prefetch_sent of { vpn : int; site : int }
  | Rt_release_hint of { vpn : int; site : int; priority : int }
  | Rt_release_sent of { vpn : int; site : int }
  | Rt_release_filtered of { vpn : int; reason : string; site : int }
  | Rt_release_buffered of { vpn : int; tag : int; priority : int }
  | Rt_release_issued of { count : int }
  | Rt_release_drained of { count : int }
  | Rt_stale_dropped of { vpn : int; site : int }
  | Disk_io of { disk : int; block : int; write : bool; ns : int }
  | Free_depth of { pages : int }
  | Rss_sample of { owner : int; pages : int }
  | Upper_limit_sample of { owner : int; pages : int }
  | Queue_depth of { owner : int; depth : int }
  | Phase_begin of { name : string }
  | Phase_end of { name : string }
  | Chaos_disk_fault of { disk : int; block : int; attempt : int }
  | Chaos_stall of { who : string; until : int }
  | Chaos_drop_directive of { count : int }
  | Chaos_pressure of { pages : int; hold : int }
  | Chaos_pressure_end of { pages : int }
  | Governor_transition of {
      level_from : int;
      level_to : int;
      drop_pct : int;
      stale_pct : int;
    }
  | Tier_demote of { page : int; tier : int; site : int }
  | Tier_fetch of { page : int; tier : int }
  | Tier_timeout of { page : int; tier : int; attempt : int }
  | Tier_failover of { page : int; tier_from : int; tier_to : int }
  | Tier_rescue of { page : int; site : int }
  | Breaker_transition of { tier : int; state_from : int; state_to : int }
  (* Telemetry alert rules ({!Telemetry}). *)
  | Alert_fire of { rule : string; value_ppm : int }
  | Alert_clear of { rule : string; value_ppm : int }

let no_site = -1

(* The ring stores each event as immediates: [stride] ints per slot in
   one preallocated int array — the timestamp, the stream and constructor
   index packed into one word, then up to four int payloads.  String
   payloads are interned to ids.  Emitting therefore never runs the write
   barrier and allocates only to intern a string it has not seen; [iter]
   decodes slots back into events. *)
let stride = 6
let kind_bits = 6

type t = {
  buf : int array;  (* [capacity * stride] words *)
  capacity : int;
  mutable start : int;  (* slot of the oldest retained event *)
  mutable len : int;
  mutable dropped : int;
  names : (int, string) Hashtbl.t;
  (* Interned string payloads: id -> string, and the reverse index. *)
  mutable strings : string array;
  mutable nstrings : int;
  string_ids : (string, int) Hashtbl.t;
  (* The last few strings interned or looked up, matched by physical
     equality: payloads are mostly literals (release-filter reasons), the
     same string every time, so the hot path neither hashes nor scans. *)
  recent : string array;
  recent_ids : int array;
  mutable recent_next : int;
}

(* Fills the unused [recent] slots; private, so no payload is ever
   physically equal to it. *)
let no_string = String.make 1 '\000'

let create ?(capacity = 262_144) () =
  let capacity = Int.max capacity 0 in
  {
    buf = Array.make (capacity * stride) 0;
    capacity;
    start = 0;
    len = 0;
    dropped = 0;
    names = Hashtbl.create 16;
    strings = [||];
    nstrings = 0;
    string_ids = Hashtbl.create 16;
    recent = Array.make 4 no_string;
    recent_ids = Array.make 4 (-1);
    recent_next = 0;
  }

let null = create ~capacity:0 ()

let enabled t = t.capacity > 0
let length t = t.len
let dropped t = t.dropped

let intern t s =
  let r = t.recent in
  if r.(0) == s then t.recent_ids.(0)
  else if r.(1) == s then t.recent_ids.(1)
  else if r.(2) == s then t.recent_ids.(2)
  else if r.(3) == s then t.recent_ids.(3)
  else begin
    let id =
      match Hashtbl.find t.string_ids s with
      | id -> id
      | exception Not_found ->
          let id = t.nstrings in
          if id = Array.length t.strings then begin
            let a = Array.make (Int.max 8 (2 * id)) "" in
            Array.blit t.strings 0 a 0 id;
            t.strings <- a
          end;
          t.strings.(id) <- s;
          t.nstrings <- id + 1;
          Hashtbl.add t.string_ids s id;
          id
    in
    let k = t.recent_next in
    r.(k) <- s;
    t.recent_ids.(k) <- id;
    t.recent_next <- (k + 1) land 3;
    id
  end

let[@inline] put (buf : int array) o kind (a : int) b c d =
  Array.unsafe_set buf (o + 2) a;
  Array.unsafe_set buf (o + 3) b;
  Array.unsafe_set buf (o + 4) c;
  Array.unsafe_set buf (o + 5) d;
  kind

let[@inline] of_bool b = if b then 1 else 0

(* Write [ev]'s payloads at word offset [o] and return its constructor
   index (declaration order). *)
let encode t buf o = function
  | Hard_fault { vpn } -> put buf o 0 vpn 0 0 0
  | Soft_fault { vpn } -> put buf o 1 vpn 0 0 0
  | Validation_fault { vpn } -> put buf o 2 vpn 0 0 0
  | Zero_fill { vpn } -> put buf o 3 vpn 0 0 0
  | Rescue { vpn; for_prefetch; site } ->
      put buf o 4 vpn (of_bool for_prefetch) site 0
  | Prefetch_issued { vpn; site } -> put buf o 5 vpn site 0 0
  | Prefetch_dropped { vpn; site } -> put buf o 6 vpn site 0 0
  | Prefetch_raced { vpn; site } -> put buf o 7 vpn site 0 0
  | Prefetch_done { vpn; site; ns } -> put buf o 8 vpn site ns 0
  | Daemon_steal { vpn; owner } -> put buf o 9 vpn owner 0 0
  | Daemon_invalidate { vpn; owner } -> put buf o 10 vpn owner 0 0
  | Releaser_free { vpn; owner; site } -> put buf o 11 vpn owner site 0
  | Release_requested { owner; count } -> put buf o 12 owner count 0 0
  | Release_skipped { vpn; owner; site } -> put buf o 13 vpn owner site 0
  | Writeback_complete { vpn; owner } -> put buf o 14 vpn owner 0 0
  | Frame_reused { vpn; owner } -> put buf o 15 vpn owner 0 0
  | Rt_prefetch_sent { vpn; site } -> put buf o 16 vpn site 0 0
  | Rt_release_hint { vpn; site; priority } -> put buf o 17 vpn site priority 0
  | Rt_release_sent { vpn; site } -> put buf o 18 vpn site 0 0
  | Rt_release_filtered { vpn; reason; site } ->
      put buf o 19 vpn (intern t reason) site 0
  | Rt_release_buffered { vpn; tag; priority } ->
      put buf o 20 vpn tag priority 0
  | Rt_release_issued { count } -> put buf o 21 count 0 0 0
  | Rt_release_drained { count } -> put buf o 22 count 0 0 0
  | Rt_stale_dropped { vpn; site } -> put buf o 23 vpn site 0 0
  | Disk_io { disk; block; write; ns } ->
      put buf o 24 disk block (of_bool write) ns
  | Free_depth { pages } -> put buf o 25 pages 0 0 0
  | Rss_sample { owner; pages } -> put buf o 26 owner pages 0 0
  | Upper_limit_sample { owner; pages } -> put buf o 27 owner pages 0 0
  | Queue_depth { owner; depth } -> put buf o 28 owner depth 0 0
  | Phase_begin { name } -> put buf o 29 (intern t name) 0 0 0
  | Phase_end { name } -> put buf o 30 (intern t name) 0 0 0
  | Chaos_disk_fault { disk; block; attempt } ->
      put buf o 31 disk block attempt 0
  | Chaos_stall { who; until } -> put buf o 32 (intern t who) until 0 0
  | Chaos_drop_directive { count } -> put buf o 33 count 0 0 0
  | Chaos_pressure { pages; hold } -> put buf o 34 pages hold 0 0
  | Chaos_pressure_end { pages } -> put buf o 35 pages 0 0 0
  | Governor_transition { level_from; level_to; drop_pct; stale_pct } ->
      put buf o 36 level_from level_to drop_pct stale_pct
  | Tier_demote { page; tier; site } -> put buf o 37 page tier site 0
  | Tier_fetch { page; tier } -> put buf o 38 page tier 0 0
  | Tier_timeout { page; tier; attempt } -> put buf o 39 page tier attempt 0
  | Tier_failover { page; tier_from; tier_to } ->
      put buf o 40 page tier_from tier_to 0
  | Tier_rescue { page; site } -> put buf o 41 page site 0 0
  | Breaker_transition { tier; state_from; state_to } ->
      put buf o 42 tier state_from state_to 0
  | Alert_fire { rule; value_ppm } ->
      put buf o 43 (intern t rule) value_ppm 0 0
  | Alert_clear { rule; value_ppm } ->
      put buf o 44 (intern t rule) value_ppm 0 0

let decode t buf o =
  let a = buf.(o + 2) and b = buf.(o + 3) in
  let c = buf.(o + 4) and d = buf.(o + 5) in
  match buf.(o + 1) land ((1 lsl kind_bits) - 1) with
  | 0 -> Hard_fault { vpn = a }
  | 1 -> Soft_fault { vpn = a }
  | 2 -> Validation_fault { vpn = a }
  | 3 -> Zero_fill { vpn = a }
  | 4 -> Rescue { vpn = a; for_prefetch = b <> 0; site = c }
  | 5 -> Prefetch_issued { vpn = a; site = b }
  | 6 -> Prefetch_dropped { vpn = a; site = b }
  | 7 -> Prefetch_raced { vpn = a; site = b }
  | 8 -> Prefetch_done { vpn = a; site = b; ns = c }
  | 9 -> Daemon_steal { vpn = a; owner = b }
  | 10 -> Daemon_invalidate { vpn = a; owner = b }
  | 11 -> Releaser_free { vpn = a; owner = b; site = c }
  | 12 -> Release_requested { owner = a; count = b }
  | 13 -> Release_skipped { vpn = a; owner = b; site = c }
  | 14 -> Writeback_complete { vpn = a; owner = b }
  | 15 -> Frame_reused { vpn = a; owner = b }
  | 16 -> Rt_prefetch_sent { vpn = a; site = b }
  | 17 -> Rt_release_hint { vpn = a; site = b; priority = c }
  | 18 -> Rt_release_sent { vpn = a; site = b }
  | 19 -> Rt_release_filtered { vpn = a; reason = t.strings.(b); site = c }
  | 20 -> Rt_release_buffered { vpn = a; tag = b; priority = c }
  | 21 -> Rt_release_issued { count = a }
  | 22 -> Rt_release_drained { count = a }
  | 23 -> Rt_stale_dropped { vpn = a; site = b }
  | 24 -> Disk_io { disk = a; block = b; write = c <> 0; ns = d }
  | 25 -> Free_depth { pages = a }
  | 26 -> Rss_sample { owner = a; pages = b }
  | 27 -> Upper_limit_sample { owner = a; pages = b }
  | 28 -> Queue_depth { owner = a; depth = b }
  | 29 -> Phase_begin { name = t.strings.(a) }
  | 30 -> Phase_end { name = t.strings.(a) }
  | 31 -> Chaos_disk_fault { disk = a; block = b; attempt = c }
  | 32 -> Chaos_stall { who = t.strings.(a); until = b }
  | 33 -> Chaos_drop_directive { count = a }
  | 34 -> Chaos_pressure { pages = a; hold = b }
  | 35 -> Chaos_pressure_end { pages = a }
  | 36 ->
      Governor_transition
        { level_from = a; level_to = b; drop_pct = c; stale_pct = d }
  | 37 -> Tier_demote { page = a; tier = b; site = c }
  | 38 -> Tier_fetch { page = a; tier = b }
  | 39 -> Tier_timeout { page = a; tier = b; attempt = c }
  | 40 -> Tier_failover { page = a; tier_from = b; tier_to = c }
  | 41 -> Tier_rescue { page = a; site = b }
  | 42 -> Breaker_transition { tier = a; state_from = b; state_to = c }
  | 43 -> Alert_fire { rule = t.strings.(a); value_ppm = b }
  | 44 -> Alert_clear { rule = t.strings.(a); value_ppm = b }
  | k -> invalid_arg (Printf.sprintf "Trace.decode: event kind %d" k)

let emit t ~time ~stream ev =
  if t.capacity > 0 then begin
    let slot =
      if t.len < t.capacity then begin
        let i = t.start + t.len in
        t.len <- t.len + 1;
        if i >= t.capacity then i - t.capacity else i
      end
      else begin
        (* Full: overwrite the oldest slot and advance the start. *)
        let i = t.start in
        t.start <- (if i + 1 = t.capacity then 0 else i + 1);
        t.dropped <- t.dropped + 1;
        i
      end
    in
    let o = slot * stride in
    let buf = t.buf in
    let kind = encode t buf o ev in
    Array.unsafe_set buf o time;
    Array.unsafe_set buf (o + 1) ((stream lsl kind_bits) lor kind)
  end

(* A disabled ring keeps no names: [null] is shared by every cell, on
   every domain, so it must never be written. *)
let set_stream_name t stream name =
  if t.capacity > 0 then Hashtbl.replace t.names stream name
let stream_name t stream = Hashtbl.find_opt t.names stream

let stream_ids t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.names [] |> List.sort compare

let iter t f =
  for j = 0 to t.len - 1 do
    let o = (t.start + j) mod t.capacity * stride in
    f ~time:t.buf.(o) ~stream:(t.buf.(o + 1) asr kind_bits) (decode t t.buf o)
  done

let clear t =
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0

let event_name = function
  | Hard_fault _ -> "hard_fault"
  | Soft_fault _ -> "soft_fault"
  | Validation_fault _ -> "validation_fault"
  | Zero_fill _ -> "zero_fill"
  | Rescue _ -> "rescue"
  | Prefetch_issued _ -> "prefetch_issued"
  | Prefetch_dropped _ -> "prefetch_dropped"
  | Prefetch_raced _ -> "prefetch_raced"
  | Prefetch_done _ -> "prefetch_done"
  | Daemon_steal _ -> "daemon_steal"
  | Daemon_invalidate _ -> "daemon_invalidate"
  | Releaser_free _ -> "releaser_free"
  | Release_requested _ -> "release_requested"
  | Release_skipped _ -> "release_skipped"
  | Writeback_complete _ -> "writeback_complete"
  | Frame_reused _ -> "frame_reused"
  | Rt_prefetch_sent _ -> "rt_prefetch_sent"
  | Rt_release_hint _ -> "rt_release_hint"
  | Rt_release_sent _ -> "rt_release_sent"
  | Rt_release_filtered _ -> "rt_release_filtered"
  | Rt_release_buffered _ -> "rt_release_buffered"
  | Rt_release_issued _ -> "rt_release_issued"
  | Rt_release_drained _ -> "rt_release_drained"
  | Rt_stale_dropped _ -> "rt_stale_dropped"
  | Disk_io _ -> "disk_io"
  | Free_depth _ -> "free_depth"
  | Rss_sample _ -> "rss_sample"
  | Upper_limit_sample _ -> "upper_limit_sample"
  | Queue_depth _ -> "queue_depth"
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Chaos_disk_fault _ -> "chaos_disk_fault"
  | Chaos_stall _ -> "chaos_stall"
  | Chaos_drop_directive _ -> "chaos_drop_directive"
  | Chaos_pressure _ -> "chaos_pressure"
  | Chaos_pressure_end _ -> "chaos_pressure_end"
  | Governor_transition _ -> "governor_transition"
  | Tier_demote _ -> "tier_demote"
  | Tier_fetch _ -> "tier_fetch"
  | Tier_timeout _ -> "tier_timeout"
  | Tier_failover _ -> "tier_failover"
  | Tier_rescue _ -> "tier_rescue"
  | Breaker_transition _ -> "breaker_transition"
  | Alert_fire _ -> "alert_fire"
  | Alert_clear _ -> "alert_clear"

let event_args = function
  | Hard_fault { vpn }
  | Soft_fault { vpn }
  | Validation_fault { vpn }
  | Zero_fill { vpn } ->
      [ ("vpn", string_of_int vpn) ]
  | Rescue { vpn; for_prefetch; site } ->
      [
        ("vpn", string_of_int vpn);
        ("for_prefetch", string_of_bool for_prefetch);
        ("site", string_of_int site);
      ]
  | Prefetch_issued { vpn; site }
  | Prefetch_dropped { vpn; site }
  | Prefetch_raced { vpn; site }
  | Rt_prefetch_sent { vpn; site }
  | Rt_release_sent { vpn; site }
  | Rt_stale_dropped { vpn; site } ->
      [ ("vpn", string_of_int vpn); ("site", string_of_int site) ]
  | Prefetch_done { vpn; site; ns } ->
      [
        ("vpn", string_of_int vpn);
        ("site", string_of_int site);
        ("ns", string_of_int ns);
      ]
  | Daemon_steal { vpn; owner }
  | Daemon_invalidate { vpn; owner }
  | Writeback_complete { vpn; owner }
  | Frame_reused { vpn; owner } ->
      [ ("vpn", string_of_int vpn); ("owner", string_of_int owner) ]
  | Releaser_free { vpn; owner; site } | Release_skipped { vpn; owner; site } ->
      [
        ("vpn", string_of_int vpn);
        ("owner", string_of_int owner);
        ("site", string_of_int site);
      ]
  | Release_requested { owner; count } ->
      [ ("owner", string_of_int owner); ("count", string_of_int count) ]
  | Rt_release_hint { vpn; site; priority } ->
      [
        ("vpn", string_of_int vpn);
        ("site", string_of_int site);
        ("priority", string_of_int priority);
      ]
  | Rt_release_filtered { vpn; reason; site } ->
      [
        ("vpn", string_of_int vpn);
        ("reason", reason);
        ("site", string_of_int site);
      ]
  | Rt_release_buffered { vpn; tag; priority } ->
      [
        ("vpn", string_of_int vpn);
        ("tag", string_of_int tag);
        ("priority", string_of_int priority);
      ]
  | Rt_release_issued { count } | Rt_release_drained { count } ->
      [ ("count", string_of_int count) ]
  | Disk_io { disk; block; write; ns } ->
      [
        ("disk", string_of_int disk);
        ("block", string_of_int block);
        ("write", string_of_bool write);
        ("ns", string_of_int ns);
      ]
  | Free_depth { pages } -> [ ("pages", string_of_int pages) ]
  | Rss_sample { owner; pages } | Upper_limit_sample { owner; pages } ->
      [ ("owner", string_of_int owner); ("pages", string_of_int pages) ]
  | Queue_depth { owner; depth } ->
      [ ("owner", string_of_int owner); ("depth", string_of_int depth) ]
  | Phase_begin { name } | Phase_end { name } -> [ ("name", name) ]
  | Chaos_disk_fault { disk; block; attempt } ->
      [
        ("disk", string_of_int disk);
        ("block", string_of_int block);
        ("attempt", string_of_int attempt);
      ]
  | Chaos_stall { who; until } -> [ ("who", who); ("until", string_of_int until) ]
  | Chaos_drop_directive { count } -> [ ("count", string_of_int count) ]
  | Chaos_pressure { pages; hold } ->
      [ ("pages", string_of_int pages); ("hold", string_of_int hold) ]
  | Chaos_pressure_end { pages } -> [ ("pages", string_of_int pages) ]
  | Governor_transition { level_from; level_to; drop_pct; stale_pct } ->
      [
        ("level_from", string_of_int level_from);
        ("level_to", string_of_int level_to);
        ("drop_pct", string_of_int drop_pct);
        ("stale_pct", string_of_int stale_pct);
      ]
  | Tier_demote { page; tier; site } ->
      [
        ("page", string_of_int page);
        ("tier", string_of_int tier);
        ("site", string_of_int site);
      ]
  | Tier_fetch { page; tier } ->
      [ ("page", string_of_int page); ("tier", string_of_int tier) ]
  | Tier_timeout { page; tier; attempt } ->
      [
        ("page", string_of_int page);
        ("tier", string_of_int tier);
        ("attempt", string_of_int attempt);
      ]
  | Tier_failover { page; tier_from; tier_to } ->
      [
        ("page", string_of_int page);
        ("tier_from", string_of_int tier_from);
        ("tier_to", string_of_int tier_to);
      ]
  | Tier_rescue { page; site } ->
      [ ("page", string_of_int page); ("site", string_of_int site) ]
  | Breaker_transition { tier; state_from; state_to } ->
      [
        ("tier", string_of_int tier);
        ("state_from", string_of_int state_from);
        ("state_to", string_of_int state_to);
      ]
  | Alert_fire { rule; value_ppm } | Alert_clear { rule; value_ppm } ->
      [ ("rule", rule); ("value_ppm", string_of_int value_ppm) ]

let counts t =
  let tbl = Hashtbl.create 32 in
  iter t (fun ~time:_ ~stream:_ ev ->
      let name = event_name ev in
      let n = Option.value (Hashtbl.find_opt tbl name) ~default:0 in
      Hashtbl.replace tbl name (n + 1));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let daemon_stream = -1
let releaser_stream = -2
let writeback_stream = -3
let kernel_stream = -4
let chaos_stream = -5
let disk_stream = -6
let tier_stream = -7
let telemetry_stream = -8
