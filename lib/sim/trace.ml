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

let describe ev =
  let i = string_of_int and b = string_of_bool in
  match ev with
  | Hard_fault { vpn } -> ("hard_fault", [ ("vpn", i vpn) ])
  | Soft_fault { vpn } -> ("soft_fault", [ ("vpn", i vpn) ])
  | Validation_fault { vpn } -> ("validation_fault", [ ("vpn", i vpn) ])
  | Zero_fill { vpn } -> ("zero_fill", [ ("vpn", i vpn) ])
  | Rescue { vpn; for_prefetch; site } ->
      ( "rescue",
        [ ("vpn", i vpn); ("for_prefetch", b for_prefetch); ("site", i site) ] )
  | Prefetch_issued { vpn; site } ->
      ("prefetch_issued", [ ("vpn", i vpn); ("site", i site) ])
  | Prefetch_dropped { vpn; site } ->
      ("prefetch_dropped", [ ("vpn", i vpn); ("site", i site) ])
  | Prefetch_raced { vpn; site } ->
      ("prefetch_raced", [ ("vpn", i vpn); ("site", i site) ])
  | Prefetch_done { vpn; site; ns } ->
      ("prefetch_done", [ ("vpn", i vpn); ("site", i site); ("ns", i ns) ])
  | Daemon_steal { vpn; owner } ->
      ("daemon_steal", [ ("vpn", i vpn); ("owner", i owner) ])
  | Daemon_invalidate { vpn; owner } ->
      ("daemon_invalidate", [ ("vpn", i vpn); ("owner", i owner) ])
  | Releaser_free { vpn; owner; site } ->
      ( "releaser_free",
        [ ("vpn", i vpn); ("owner", i owner); ("site", i site) ] )
  | Release_requested { owner; count } ->
      ("release_requested", [ ("owner", i owner); ("count", i count) ])
  | Release_skipped { vpn; owner; site } ->
      ( "release_skipped",
        [ ("vpn", i vpn); ("owner", i owner); ("site", i site) ] )
  | Writeback_complete { vpn; owner } ->
      ("writeback_complete", [ ("vpn", i vpn); ("owner", i owner) ])
  | Frame_reused { vpn; owner } ->
      ("frame_reused", [ ("vpn", i vpn); ("owner", i owner) ])
  | Rt_prefetch_sent { vpn; site } ->
      ("rt_prefetch_sent", [ ("vpn", i vpn); ("site", i site) ])
  | Rt_release_hint { vpn; site; priority } ->
      ( "rt_release_hint",
        [ ("vpn", i vpn); ("site", i site); ("priority", i priority) ] )
  | Rt_release_sent { vpn; site } ->
      ("rt_release_sent", [ ("vpn", i vpn); ("site", i site) ])
  | Rt_release_filtered { vpn; reason; site } ->
      ( "rt_release_filtered",
        [ ("vpn", i vpn); ("reason", reason); ("site", i site) ] )
  | Rt_release_buffered { vpn; tag; priority } ->
      ( "rt_release_buffered",
        [ ("vpn", i vpn); ("tag", i tag); ("priority", i priority) ] )
  | Rt_release_issued { count } -> ("rt_release_issued", [ ("count", i count) ])
  | Rt_release_drained { count } ->
      ("rt_release_drained", [ ("count", i count) ])
  | Rt_stale_dropped { vpn; site } ->
      ("rt_stale_dropped", [ ("vpn", i vpn); ("site", i site) ])
  | Disk_io { disk; block; write; ns } ->
      ( "disk_io",
        [ ("disk", i disk); ("block", i block); ("write", b write);
          ("ns", i ns) ] )
  | Free_depth { pages } -> ("free_depth", [ ("pages", i pages) ])
  | Rss_sample { owner; pages } ->
      ("rss_sample", [ ("owner", i owner); ("pages", i pages) ])
  | Upper_limit_sample { owner; pages } ->
      ("upper_limit_sample", [ ("owner", i owner); ("pages", i pages) ])
  | Queue_depth { owner; depth } ->
      ("queue_depth", [ ("owner", i owner); ("depth", i depth) ])
  | Phase_begin { name } -> ("phase_begin", [ ("name", name) ])
  | Phase_end { name } -> ("phase_end", [ ("name", name) ])
  | Chaos_disk_fault { disk; block; attempt } ->
      ( "chaos_disk_fault",
        [ ("disk", i disk); ("block", i block); ("attempt", i attempt) ] )
  | Chaos_stall { who; until } ->
      ("chaos_stall", [ ("who", who); ("until", i until) ])
  | Chaos_drop_directive { count } ->
      ("chaos_drop_directive", [ ("count", i count) ])
  | Chaos_pressure { pages; hold } ->
      ("chaos_pressure", [ ("pages", i pages); ("hold", i hold) ])
  | Chaos_pressure_end { pages } ->
      ("chaos_pressure_end", [ ("pages", i pages) ])
  | Governor_transition { level_from; level_to; drop_pct; stale_pct } ->
      ( "governor_transition",
        [ ("level_from", i level_from); ("level_to", i level_to);
          ("drop_pct", i drop_pct); ("stale_pct", i stale_pct) ] )
  | Tier_demote { page; tier; site } ->
      ("tier_demote", [ ("page", i page); ("tier", i tier); ("site", i site) ])
  | Tier_fetch { page; tier } ->
      ("tier_fetch", [ ("page", i page); ("tier", i tier) ])
  | Tier_timeout { page; tier; attempt } ->
      ( "tier_timeout",
        [ ("page", i page); ("tier", i tier); ("attempt", i attempt) ] )
  | Tier_failover { page; tier_from; tier_to } ->
      ( "tier_failover",
        [ ("page", i page); ("tier_from", i tier_from);
          ("tier_to", i tier_to) ] )
  | Tier_rescue { page; site } ->
      ("tier_rescue", [ ("page", i page); ("site", i site) ])
  | Breaker_transition { tier; state_from; state_to } ->
      ( "breaker_transition",
        [ ("tier", i tier); ("state_from", i state_from);
          ("state_to", i state_to) ] )
  | Alert_fire { rule; value_ppm } ->
      ("alert_fire", [ ("rule", rule); ("value_ppm", i value_ppm) ])
  | Alert_clear { rule; value_ppm } ->
      ("alert_clear", [ ("rule", rule); ("value_ppm", i value_ppm) ])

let counts t =
  let tbl = Hashtbl.create 32 in
  iter t (fun ~time:_ ~stream:_ ev ->
      let name, _ = describe ev in
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
