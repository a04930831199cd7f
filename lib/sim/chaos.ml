type stats = {
  mutable disk_faults : int;
  mutable disk_retries : int;
  mutable disk_backoff_ns : int;
  mutable slow_requests : int;
  mutable releaser_stall_ns : int;
  mutable daemon_stall_ns : int;
  mutable directives_dropped : int;
  mutable pressure_spikes : int;
  mutable pressure_pages : int;
  mutable net_partition_drops : int;
  mutable net_slow_requests : int;
  mutable net_jitter_ns : int;
}

let fresh_stats () =
  {
    disk_faults = 0;
    disk_retries = 0;
    disk_backoff_ns = 0;
    slow_requests = 0;
    releaser_stall_ns = 0;
    daemon_stall_ns = 0;
    directives_dropped = 0;
    pressure_spikes = 0;
    pressure_pages = 0;
    net_partition_drops = 0;
    net_slow_requests = 0;
    net_jitter_ns = 0;
  }

type kind =
  | Disk_fault
  | Disk_slow
  | Releaser_stall
  | Releaser_drop
  | Daemon_stall
  | Pressure
  | Net_partition
  | Net_brownout
  | Net_jitter

(* One parsed clause.  Fields irrelevant to a kind keep their defaults and
   are never read; each rule owns an independent RNG stream so the draw
   sequence of one rule cannot disturb another's. *)
type rule = {
  kind : kind;
  start : Time_ns.t;
  stop : Time_ns.t;
  p : float;
  retries : int;
  fails : int option;
  backoff : Time_ns.t;
  factor : float;
  pages : int;
  hold : Time_ns.t;
  latency : Time_ns.t;
  bandwidth : float;
  rng : Rng.t;
}

type t = { rules : rule list; st : stats }

let none = { rules = []; st = fresh_stats () }
let is_none t = t.rules = []
let stats t = t.st

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let bad = Spec_lex.bad

let kind_of_string = function
  | "disk-fault" -> Disk_fault
  | "disk-slow" -> Disk_slow
  | "releaser-stall" -> Releaser_stall
  | "releaser-drop" -> Releaser_drop
  | "daemon-stall" -> Daemon_stall
  | "pressure" -> Pressure
  | "net-partition" -> Net_partition
  | "net-brownout" -> Net_brownout
  | "net-jitter" -> Net_jitter
  | s -> bad "unknown fault kind %S" s

(* A clause before RNG assignment. *)
type proto = {
  pr_kind : kind;
  pr_start : Time_ns.t;
  pr_stop : Time_ns.t;
  pr_params : (string * string) list;  (* values still textual *)
}

let parse_clause clause =
  match String.index_opt clause '@' with
  | None -> bad "clause %S: expected kind@start-stop[:params]" clause
  | Some at ->
      let name = String.trim (String.sub clause 0 at) in
      let kind = kind_of_string name in
      let rest = String.sub clause (at + 1) (String.length clause - at - 1) in
      let window, params =
        match String.index_opt rest ':' with
        | None -> (rest, [])
        | Some c ->
            ( String.sub rest 0 c,
              Spec_lex.kvs ~clause:name
                (String.sub rest (c + 1) (String.length rest - c - 1)) )
      in
      let start, stop =
        match String.split_on_char '-' window with
        | [ a; b ] ->
            (Spec_lex.time ~key:"start" a, Spec_lex.time ~key:"stop" b)
        | _ -> bad "bad window %S (expected start-stop)" window
      in
      { pr_kind = kind; pr_start = start; pr_stop = stop; pr_params = params }

(* ------------------------------------------------------------------ *)
(* Rule construction and validation                                    *)
(* ------------------------------------------------------------------ *)

let default_backoff = Time_ns.us 500
let default_hold = Time_ns.sec 1

let rule_of_proto ~seed ~index pr =
  let p = ref 1.0
  and retries = ref 4
  and fails = ref None
  and backoff = ref default_backoff
  and factor = ref 4.0
  and pages = ref 64
  and hold = ref default_hold
  and latency = ref 0
  and bandwidth = ref 1.0
  and net_shape_given = ref false in
  List.iter
    (fun (k, v) ->
      match k with
      | "p" -> p := Spec_lex.float ~key:k v
      | "retries" -> retries := Spec_lex.int ~key:k v
      | "fails" -> fails := Some (Spec_lex.int ~key:k v)
      | "backoff" -> backoff := Spec_lex.time ~key:k v
      | "factor" ->
          factor := Spec_lex.float ~key:k v;
          net_shape_given := true
      | "pages" -> pages := Spec_lex.int ~key:k v
      | "hold" -> hold := Spec_lex.time ~key:k v
      | "latency" -> latency := Spec_lex.time ~key:k v
      | "bandwidth" ->
          bandwidth := Spec_lex.float ~key:k v;
          net_shape_given := true
      | _ -> bad "unknown parameter %S" k)
    pr.pr_params;
  if pr.pr_stop <= pr.pr_start then
    bad "window stop (%s) must follow start (%s)"
      (Time_ns.to_string pr.pr_stop)
      (Time_ns.to_string pr.pr_start);
  if !p < 0.0 || !p > 1.0 then bad "p=%g out of [0,1]" !p;
  if !retries < 1 then bad "retries=%d must be >= 1" !retries;
  (match !fails with
  | Some f when f < 1 || f > !retries ->
      bad "fails=%d out of [1,retries=%d]" f !retries
  | _ -> ());
  if !factor < 1.0 then bad "factor=%g must be >= 1" !factor;
  if !pages < 1 then bad "pages=%d must be >= 1" !pages;
  if !hold < 1 then bad "hold must be positive";
  if !backoff < 1 then bad "backoff must be positive";
  (* Net clauses: a malformed bandwidth or latency must fail the parse, not
     silently degrade to the defaults — a typo here would otherwise turn a
     brown-out scenario into a no-op. *)
  if !latency < 0 then bad "latency must be non-negative";
  if !bandwidth <= 0.0 || !bandwidth > 1.0 then
    bad "bandwidth=%g out of (0,1] (fraction of nominal link rate)" !bandwidth;
  (match pr.pr_kind with
  | Net_jitter when !latency < 1 ->
      bad "net-jitter requires latency=TIME (> 0) for the jitter amplitude"
  | Net_brownout
    when (not !net_shape_given) || (!factor <= 1.0 && !bandwidth >= 1.0) ->
      (* the shared factor default (4, for disk-slow) must not silently
         shape a brown-out the spec never asked for *)
      bad
        "net-brownout requires factor>1 (latency multiplier) and/or \
         bandwidth<1 (link derating)"
  | _ -> ());
  {
    kind = pr.pr_kind;
    start = pr.pr_start;
    stop = pr.pr_stop;
    p = !p;
    retries = !retries;
    fails = !fails;
    backoff = !backoff;
    factor = !factor;
    pages = !pages;
    hold = !hold;
    latency = !latency;
    bandwidth = !bandwidth;
    (* A distinct stream per rule: the golden-ratio multiplier decorrelates
       neighbouring indices even under a zero seed. *)
    rng = Rng.create ~seed:(seed lxor (0x9E3779B9 * (index + 1)));
  }

let parse ?(seed = 0) spec =
  try
    let clauses =
      List.filter_map
        (fun c ->
          let c = String.trim c in
          if c = "" then None else Some c)
        (String.split_on_char ';' spec)
    in
    let seed =
      List.fold_left
        (fun acc c ->
          match String.index_opt c '=' with
          | Some e
            when String.index_opt c '@' = None
                 && String.trim (String.sub c 0 e) = "seed" ->
              Spec_lex.int ~key:"seed"
                (String.sub c (e + 1) (String.length c - e - 1))
          | _ -> acc)
        seed clauses
    in
    let protos =
      List.filter_map
        (fun c ->
          match String.index_opt c '@' with
          | Some _ -> Some (parse_clause c)
          | None -> (
              (* only seed= clauses may omit the window; anything else
                 without one is a typo, not something to ignore *)
              match String.index_opt c '=' with
              | Some e when String.trim (String.sub c 0 e) = "seed" -> None
              | _ ->
                  bad "clause %S: expected kind@start-stop[:params] or seed=N"
                    c))
        clauses
    in
    Ok
      {
        rules = List.mapi (fun i pr -> rule_of_proto ~seed ~index:i pr) protos;
        st = fresh_stats ();
      }
  with Spec_lex.Bad msg -> Error (Printf.sprintf "chaos spec: %s" msg)

let create ?seed spec =
  match parse ?seed spec with
  | Ok t -> t
  | Error msg -> invalid_arg msg

(* ------------------------------------------------------------------ *)
(* Hook points                                                         *)
(* ------------------------------------------------------------------ *)

let active r ~now = now >= r.start && now < r.stop

let disk_fault t ~now =
  let rec find = function
    | [] -> None
    | r :: rest when r.kind = Disk_fault && active r ~now ->
        if r.p >= 1.0 || Rng.float r.rng 1.0 < r.p then (
          let k =
            match r.fails with
            | Some k -> k
            | None -> 1 + Rng.int r.rng r.retries
          in
          t.st.disk_faults <- t.st.disk_faults + 1;
          Some (k, r.backoff))
        else find rest
    | _ :: rest -> find rest
  in
  find t.rules

let note_disk_retry t ~backoff =
  t.st.disk_retries <- t.st.disk_retries + 1;
  t.st.disk_backoff_ns <- t.st.disk_backoff_ns + backoff

let disk_slow_factor t ~now =
  let f =
    List.fold_left
      (fun acc r ->
        if r.kind = Disk_slow && active r ~now then Float.max acc r.factor
        else acc)
      1.0 t.rules
  in
  if f > 1.0 then t.st.slow_requests <- t.st.slow_requests + 1;
  f

let stall_until t who ~now =
  let kind = match who with `Releaser -> Releaser_stall | `Daemon -> Daemon_stall in
  List.fold_left
    (fun acc r ->
      if r.kind = kind && active r ~now then
        match acc with
        | Some stop -> Some (Int.max stop r.stop)
        | None -> Some r.stop
      else acc)
    None t.rules

let note_stall t who d =
  match who with
  | `Releaser -> t.st.releaser_stall_ns <- t.st.releaser_stall_ns + d
  | `Daemon -> t.st.daemon_stall_ns <- t.st.daemon_stall_ns + d

let drop_directive t ~now =
  let rec find = function
    | [] -> false
    | r :: rest when r.kind = Releaser_drop && active r ~now ->
        if r.p >= 1.0 || Rng.float r.rng 1.0 < r.p then (
          t.st.directives_dropped <- t.st.directives_dropped + 1;
          true)
        else find rest
    | _ :: rest -> find rest
  in
  find t.rules

let pressure_spikes t =
  t.rules
  |> List.filter_map (fun r ->
         if r.kind = Pressure then Some (r.start, r.pages, r.hold) else None)
  |> List.sort compare

let note_pressure t ~pages =
  t.st.pressure_spikes <- t.st.pressure_spikes + 1;
  t.st.pressure_pages <- t.st.pressure_pages + pages

(* ---- network-tier hooks (far-memory backend) ---- *)

let net_partitioned t ~now =
  let rec find = function
    | [] -> false
    | r :: rest when r.kind = Net_partition && active r ~now ->
        if r.p >= 1.0 || Rng.float r.rng 1.0 < r.p then (
          t.st.net_partition_drops <- t.st.net_partition_drops + 1;
          true)
        else find rest
    | _ :: rest -> find rest
  in
  find t.rules

let net_latency_factor t ~now =
  let f =
    List.fold_left
      (fun acc r ->
        if r.kind = Net_brownout && active r ~now then Float.max acc r.factor
        else acc)
      1.0 t.rules
  in
  if f > 1.0 then t.st.net_slow_requests <- t.st.net_slow_requests + 1;
  f

let net_bandwidth_scale t ~now =
  List.fold_left
    (fun acc r ->
      if r.kind = Net_brownout && active r ~now then Float.min acc r.bandwidth
      else acc)
    1.0 t.rules

let net_jitter t ~now =
  let j =
    List.fold_left
      (fun acc r ->
        if r.kind = Net_jitter && active r ~now then
          if r.p >= 1.0 || Rng.float r.rng 1.0 < r.p then
            acc + Rng.int r.rng (r.latency + 1)
          else acc
        else acc)
      0 t.rules
  in
  if j > 0 then t.st.net_jitter_ns <- t.st.net_jitter_ns + j;
  j

(* ---- retry backoff schedule ---- *)

(* Shared by the disk-fault retry path and the far-memory re-issue path.
   Attempt [i] (1-based) waits [base * 2^(i-1)], saturating at [cap]; pure,
   total and overflow-safe so the property suite can hammer it. *)
let backoff_delay ~base ~cap ~attempt =
  if base < 1 then invalid_arg "Chaos.backoff_delay: base must be >= 1";
  if cap < base then invalid_arg "Chaos.backoff_delay: cap must be >= base";
  if attempt < 1 then invalid_arg "Chaos.backoff_delay: attempt must be >= 1";
  let shift = attempt - 1 in
  (* [base lsl shift] would overflow long before shift reaches 62; compare
     against the cap in shifted-down space instead. *)
  if shift >= 62 || base > cap asr shift then cap else base lsl shift
