open Memhog_sim
module Swap = Memhog_disk.Swap
module Disk = Memhog_disk.Disk
module Backend = Memhog_disk.Backend
module Farmem = Memhog_disk.Farmem
module Zram = Memhog_disk.Zram

(* Trace labels for the three stores.  0 is the local striped swap volume
   (always present, never breaks), 1 the network far-memory tier, 2 the
   compressed-RAM tier. *)
let tier_disk = 0
let tier_far = 1
let tier_zram = 2

let tier_name = function
  | 0 -> "disk"
  | 1 -> "far"
  | 2 -> "zram"
  | n -> Printf.sprintf "tier-%d" n

(* ------------------------------------------------------------------ *)
(* Spec                                                                *)
(* ------------------------------------------------------------------ *)

type route = {
  r_thresh : int;
  r_ewma : float;
  r_open : float;
  r_min : int;
  r_hold : Time_ns.t;
  r_hold_cap : Time_ns.t;
}

let default_route =
  {
    r_thresh = 3;
    r_ewma = 0.3;
    r_open = 0.5;
    r_min = 3;
    r_hold = Time_ns.ms 50;
    r_hold_cap = Time_ns.sec 1;
  }

type spec = {
  sp_far : Farmem.params option;
  sp_zram : Zram.params option;
  sp_route : route;
}

let bad = Spec_lex.bad

let parse_bytes k s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then bad "%s: empty size" k;
  let last = s.[n - 1] in
  let mult, num =
    match last with
    | 'K' | 'k' -> (1024, String.sub s 0 (n - 1))
    | 'M' | 'm' -> (1024 * 1024, String.sub s 0 (n - 1))
    | 'G' | 'g' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
    | _ -> (1, s)
  in
  match int_of_string_opt num with
  | Some v when v > 0 -> v * mult
  | _ -> bad "%s: bad size %S" k s

let parse_far kvs =
  let p = ref Farmem.default_params in
  List.iter
    (fun (k, v) ->
      match k with
      | "latency" ->
          p := { !p with Farmem.base_latency_ns = Spec_lex.time ~key:k v }
      | "bw" -> p := { !p with Farmem.bandwidth_mb_s = Spec_lex.float ~key:k v }
      | "timeout" -> p := { !p with Farmem.timeout_ns = Spec_lex.time ~key:k v }
      | "attempts" -> p := { !p with Farmem.attempts = Spec_lex.int ~key:k v }
      | "backoff" -> p := { !p with Farmem.backoff_ns = Spec_lex.time ~key:k v }
      | "cap" ->
          p := { !p with Farmem.backoff_cap_ns = Spec_lex.time ~key:k v }
      | _ -> bad "far: unknown key %S" k)
    kvs;
  if !p.Farmem.attempts < 1 then bad "far: attempts must be >= 1";
  if !p.Farmem.bandwidth_mb_s <= 0.0 then bad "far: bw must be positive";
  if !p.Farmem.timeout_ns < 1 then bad "far: timeout must be positive";
  if !p.Farmem.backoff_ns < 1 then bad "far: backoff must be >= 1ns";
  if !p.Farmem.backoff_cap_ns < !p.Farmem.backoff_ns then
    bad "far: cap must be >= backoff";
  !p

let parse_zram kvs =
  let p = ref Zram.default_params in
  List.iter
    (fun (k, v) ->
      match k with
      | "cap" -> p := { !p with Zram.capacity_bytes = parse_bytes k v }
      | "compress" ->
          p := { !p with Zram.compress_ns_per_kb = Spec_lex.time ~key:k v }
      | "decompress" ->
          p := { !p with Zram.decompress_ns_per_kb = Spec_lex.time ~key:k v }
      | _ -> bad "zram: unknown key %S" k)
    kvs;
  !p

let parse_route kvs =
  let r = ref default_route in
  List.iter
    (fun (k, v) ->
      match k with
      | "thresh" -> r := { !r with r_thresh = Spec_lex.int ~key:k v }
      | "ewma" -> r := { !r with r_ewma = Spec_lex.float ~key:k v }
      | "open" -> r := { !r with r_open = Spec_lex.float ~key:k v }
      | "min" -> r := { !r with r_min = Spec_lex.int ~key:k v }
      | "hold" -> r := { !r with r_hold = Spec_lex.time ~key:k v }
      | "cap" -> r := { !r with r_hold_cap = Spec_lex.time ~key:k v }
      | _ -> bad "route: unknown key %S" k)
    kvs;
  if !r.r_ewma <= 0.0 || !r.r_ewma > 1.0 then bad "route: ewma out of (0,1]";
  if !r.r_open <= 0.0 || !r.r_open > 1.0 then bad "route: open out of (0,1]";
  if !r.r_min < 1 then bad "route: min must be >= 1";
  if !r.r_hold < 1 then bad "route: hold must be positive";
  if !r.r_hold_cap < !r.r_hold then bad "route: cap must be >= hold";
  !r

let spec_of_string s =
  try
    let far = ref None and zram = ref None and route = ref default_route in
    List.iter
      (fun clause ->
        let clause = String.trim clause in
        if clause = "" then bad "empty clause"
        else
          let name, body =
            match String.index_opt clause ':' with
            | None -> (clause, "")
            | Some c ->
                ( String.sub clause 0 c,
                  String.sub clause (c + 1) (String.length clause - c - 1) )
          in
          let kvs = Spec_lex.kvs ~clause:(String.trim name) body in
          match String.trim name with
          | "far" ->
              if !far <> None then bad "duplicate far clause";
              far := Some (parse_far kvs)
          | "zram" ->
              if !zram <> None then bad "duplicate zram clause";
              zram := Some (parse_zram kvs)
          | "route" -> route := parse_route kvs
          | n -> bad "unknown tier %S (expected far, zram or route)" n)
      (String.split_on_char '+' s);
    if !far = None && !zram = None then
      bad "spec %S names no tier (add far and/or zram)" s;
    Ok { sp_far = !far; sp_zram = !zram; sp_route = !route }
  with Spec_lex.Bad m -> Error m

let spec_of_string_exn s =
  match spec_of_string s with Ok sp -> sp | Error m -> invalid_arg m

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

type breaker_state = Closed | Half_open | Open

let state_code = function Closed -> 0 | Half_open -> 1 | Open -> 2

type breaker = {
  mutable b_state : breaker_state;
  mutable b_ewma : float;  (* failure-rate EWMA in [0,1] *)
  mutable b_samples : int;
  mutable b_since : Time_ns.t;  (* last open time *)
  mutable b_hold : Time_ns.t;  (* current hold-off before a probe *)
  mutable b_probing : bool;
  mutable b_transitions : int;
}

type admit = A_no | A_normal | A_probe

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

type loc = { l_tier : int; l_pid : int; l_vpn : int; l_site : int }

type t = {
  route : route;
  swap : Swap.t;
  far : Farmem.t option;
  zram : Zram.t option;
  breaker : breaker;  (* health of the far tier; local tiers never break *)
  locs : (int, loc) Hashtbl.t;  (* swap page id -> fast-tier placement *)
  mutable far_failovers : int;
  mutable zram_failovers : int;
  mutable rescues : int;
  obs : Obs.t;
}

let create ?(obs = Obs.null) ?chaos ~engine ~page_bytes ~swap spec () =
  let far =
    Option.map
      (fun params ->
        Farmem.create ~params ?chaos ~obs ~trace_id:tier_far ~engine
          ~page_bytes ())
      spec.sp_far
  in
  let zram =
    Option.map (fun params -> Zram.create ~params ~page_bytes ()) spec.sp_zram
  in
  {
    route = spec.sp_route;
    swap;
    far;
    zram;
    breaker =
      {
        b_state = Closed;
        b_ewma = 0.0;
        b_samples = 0;
        b_since = 0;
        b_hold = spec.sp_route.r_hold;
        b_probing = false;
        b_transitions = 0;
      };
    locs = Hashtbl.create 1024;
    far_failovers = 0;
    zram_failovers = 0;
    rescues = 0;
    obs;
  }

(* Tier events go on the tier stream, stamped with the engine's clock.
   Callers guard with [Obs.on] so a disabled bus builds no event. *)
let emit t ev =
  Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.tier_stream ev

let far_open t = t.far <> None && t.breaker.b_state = Open
let rescues t = t.rescues
let far_failovers t = t.far_failovers
let breaker_transitions t = t.breaker.b_transitions
let breaker_state t = state_code t.breaker.b_state
let placed_pages t = Hashtbl.length t.locs
let zram t = t.zram
let far t = t.far

let transition t ~to_ =
  let b = t.breaker in
  if b.b_state <> to_ then begin
    let from = b.b_state in
    b.b_state <- to_;
    b.b_transitions <- b.b_transitions + 1;
    if Obs.on t.obs then
      emit t
        (Trace.Breaker_transition
           {
             tier = tier_far;
             state_from = state_code from;
             state_to = state_code to_;
           })
  end

(* Admission control for the far tier.  While open, requests are refused
   outright (callers fail over); once the hold-off elapses a single probe is
   let through half-open, and its outcome decides between closing and
   re-opening with a doubled hold-off. *)
let admit t ~now =
  let b = t.breaker in
  match b.b_state with
  | Closed -> A_normal
  | Open ->
      if now - b.b_since >= b.b_hold && not b.b_probing then begin
        transition t ~to_:Half_open;
        b.b_probing <- true;
        A_probe
      end
      else A_no
  | Half_open ->
      if b.b_probing then A_no
      else begin
        b.b_probing <- true;
        A_probe
      end

let record t ~now ~probe ~ok =
  let b = t.breaker in
  if probe then begin
    b.b_probing <- false;
    if ok then begin
      b.b_ewma <- 0.0;
      b.b_samples <- 0;
      b.b_hold <- t.route.r_hold;
      transition t ~to_:Closed
    end
    else begin
      b.b_hold <- Int.min (b.b_hold * 2) t.route.r_hold_cap;
      b.b_since <- now;
      transition t ~to_:Open
    end
  end
  else begin
    b.b_samples <- b.b_samples + 1;
    b.b_ewma <-
      (t.route.r_ewma *. (if ok then 0.0 else 1.0))
      +. ((1.0 -. t.route.r_ewma) *. b.b_ewma);
    if
      b.b_state = Closed
      && b.b_samples >= t.route.r_min
      && b.b_ewma >= t.route.r_open
    then begin
      b.b_since <- now;
      transition t ~to_:Open
    end
  end

(* ------------------------------------------------------------------ *)
(* Demotion                                                            *)
(* ------------------------------------------------------------------ *)

let place_far t fm ~page =
  let now = Engine.now () in
  match admit t ~now with
  | A_no ->
      t.far_failovers <- t.far_failovers + 1;
      if Obs.on t.obs then
        emit t
          (Trace.Tier_failover
             { page; tier_from = tier_far; tier_to = tier_disk });
      false
  | (A_normal | A_probe) as a ->
      let ok =
        match Farmem.write_page ~background:true fm ~page with
        | Backend.W_ok _ -> true
        | Backend.W_rejected _ -> false
      in
      record t ~now:(Engine.now ()) ~probe:(a = A_probe) ~ok;
      if not ok then begin
        t.far_failovers <- t.far_failovers + 1;
        if Obs.on t.obs then
          emit t
            (Trace.Tier_failover
               { page; tier_from = tier_far; tier_to = tier_disk })
      end;
      ok

let place_zram t z ~page ~site =
  match Zram.write_page ~background:true ~site z ~page with
  | Backend.W_ok _ -> true
  | Backend.W_rejected _ ->
      t.zram_failovers <- t.zram_failovers + 1;
      if Obs.on t.obs then
        emit t
          (Trace.Tier_failover
             { page; tier_from = tier_zram; tier_to = tier_disk });
      false

(* The durable copy is already on local swap (the caller's write-back is
   unconditional); placement here is an additional fast copy.  Low Eq. 2
   priorities — reuse far away, if ever — go to the far tier; high ones,
   the pages most likely to come back soon, go to compressed RAM.  Pages
   with no priority (daemon steals) keep the swap copy only. *)
let demote t ~page ~pid ~vpn ~site ~priority =
  match priority with
  | None -> ()
  | Some prio ->
      let want_far = prio < t.route.r_thresh in
      let placed, tier =
        match (want_far, t.far, t.zram) with
        | true, Some fm, _ -> (place_far t fm ~page, tier_far)
        | false, _, Some z -> (place_zram t z ~page ~site, tier_zram)
        (* single-tier configs take everything routable to the tier present *)
        | true, None, Some z -> (place_zram t z ~page ~site, tier_zram)
        | false, Some fm, None -> (place_far t fm ~page, tier_far)
        | _, None, None -> (false, tier_disk)
      in
      if placed then begin
        Hashtbl.replace t.locs page
          { l_tier = tier; l_pid = pid; l_vpn = vpn; l_site = site };
        if Obs.on t.obs then emit t (Trace.Tier_demote { page; tier; site })
      end

(* ------------------------------------------------------------------ *)
(* Fetch                                                               *)
(* ------------------------------------------------------------------ *)

(* Last resort: the fast copy is unreachable (dead link, breaker open,
   exhausted retries), so read the durable failover copy from local swap.
   Never fails — which is what bounds every fiber's wait. *)
let rescue t ~cat ~background ~page ~site =
  Hashtbl.remove t.locs page;
  Swap.read_page ~cat ~background t.swap ~page;
  t.rescues <- t.rescues + 1;
  if Obs.on t.obs then emit t (Trace.Tier_rescue { page; site })

let fetch_far t fm ~cat ~background ~page ~site =
  let now = Engine.now () in
  match admit t ~now with
  | A_no -> rescue t ~cat ~background ~page ~site
  | (A_normal | A_probe) as a -> (
      let r = Farmem.read_page ~cat ~background fm ~page in
      let ok = match r with Backend.R_ok _ -> true | Backend.R_failed _ -> false in
      record t ~now:(Engine.now ()) ~probe:(a = A_probe) ~ok;
      if ok then begin
        Hashtbl.remove t.locs page;
        if Obs.on t.obs then emit t (Trace.Tier_fetch { page; tier = tier_far })
      end
      else rescue t ~cat ~background ~page ~site)

let fetch_zram t z ~cat ~background ~page ~site =
  match Zram.read_page ~cat ~background z ~page with
  | Backend.R_ok _ ->
      Hashtbl.remove t.locs page;
      if Obs.on t.obs then emit t (Trace.Tier_fetch { page; tier = tier_zram })
  | Backend.R_failed _ ->
      (* location map said zram: only reachable if the copy vanished, which
         the invariants rule out — but recover anyway rather than trust. *)
      rescue t ~cat ~background ~page ~site

let fetch t ?(cat = Account.Io_stall) ?(background = false) ~page () =
  match Hashtbl.find_opt t.locs page with
  | None -> Swap.read_page ~cat ~background t.swap ~page
  | Some loc -> (
      match (loc.l_tier, t.far, t.zram) with
      | 1, Some fm, _ ->
          fetch_far t fm ~cat ~background ~page ~site:loc.l_site
      | 2, _, Some z -> fetch_zram t z ~cat ~background ~page ~site:loc.l_site
      | _ -> rescue t ~cat ~background ~page ~site:loc.l_site)

(* A page re-entering RAM by any route other than [fetch] (a rescue off the
   free list reinstalling the frame) must drop its fast-tier copy, or it
   would be resident and tier-resident at once.  Pure bookkeeping: the
   discarded copy is never read, so no simulated time passes. *)
let invalidate t ~page =
  match Hashtbl.find_opt t.locs page with
  | None -> ()
  | Some loc ->
      Hashtbl.remove t.locs page;
      if loc.l_tier = tier_zram then
        match t.zram with Some z -> Zram.drop z ~page | None -> ()

(* ------------------------------------------------------------------ *)
(* Invariants and summary                                              *)
(* ------------------------------------------------------------------ *)

(* Cross-checks between the router's location map and the VM the caller
   describes through [resident]: a placed page must not be resident, and
   the zram store must hold exactly the pages the map routes to it. *)
let check t ~resident =
  let ok_exclusive = ref true in
  let zram_mapped = ref 0 in
  Hashtbl.iter
    (fun _page loc ->
      if resident ~pid:loc.l_pid ~vpn:loc.l_vpn then ok_exclusive := false;
      if loc.l_tier = tier_zram then incr zram_mapped)
    t.locs;
  let ok_zram_match =
    match t.zram with
    | None -> !zram_mapped = 0
    | Some z ->
        Hashtbl.fold
          (fun page loc acc ->
            acc
            && (loc.l_tier <> tier_zram || Zram.contains z ~page))
          t.locs
          (Zram.stored_pages z = !zram_mapped)
  in
  [
    ("no page both resident and tier-resident", !ok_exclusive);
    ("zram occupancy matches the location map", ok_zram_match);
  ]

type tier_summary = {
  ts_tier : int;
  ts_reads : int;
  ts_writes : int;
  ts_timeouts : int;
  ts_retries : int;
  ts_rejects : int;
  ts_failovers : int;
  ts_breaker_transitions : int;
}

type summary = {
  s_tiers : tier_summary list;  (* in tier-id order; disk always present *)
  s_rescues : int;
  s_breaker_state : int;  (* far breaker at summary time: 0/1/2 *)
  s_placed : int;  (* pages currently held in a fast tier *)
  s_zram_amplification : float;  (* 1.0 when zram is absent or empty *)
}

let summary t =
  let disk_row =
    let timeouts =
      Array.fold_left
        (fun acc d -> acc + Disk.timeouts d)
        0 (Swap.disks t.swap)
    in
    {
      ts_tier = tier_disk;
      ts_reads = Swap.page_reads t.swap;
      ts_writes = Swap.page_writes t.swap;
      ts_timeouts = timeouts;
      ts_retries = 0;
      ts_rejects = 0;
      ts_failovers = 0;
      ts_breaker_transitions = 0;
    }
  in
  let of_stats tier (st : Backend.stats) ~failovers ~transitions =
    {
      ts_tier = tier;
      ts_reads = st.Backend.reads;
      ts_writes = st.Backend.writes;
      ts_timeouts = st.Backend.timeouts;
      ts_retries = st.Backend.retries;
      ts_rejects = st.Backend.rejects;
      ts_failovers = failovers;
      ts_breaker_transitions = transitions;
    }
  in
  let rows =
    [ Some disk_row;
      Option.map
        (fun fm ->
          of_stats tier_far (Farmem.stats fm) ~failovers:t.far_failovers
            ~transitions:t.breaker.b_transitions)
        t.far;
      Option.map
        (fun z ->
          of_stats tier_zram (Zram.stats z) ~failovers:t.zram_failovers
            ~transitions:0)
        t.zram ]
    |> List.filter_map Fun.id
  in
  {
    s_tiers = rows;
    s_rescues = t.rescues;
    s_breaker_state = state_code t.breaker.b_state;
    s_placed = Hashtbl.length t.locs;
    s_zram_amplification =
      (match t.zram with None -> 1.0 | Some z -> Zram.amplification z);
  }
