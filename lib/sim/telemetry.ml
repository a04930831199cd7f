type kind = Counter | Gauge

let kind_name = function Counter -> "counter" | Gauge -> "gauge"

type series = {
  se_name : string;
  se_help : string;
  se_kind : kind;
  se_probe : unit -> float;
  (* retained window: a ring of the newest [capacity] samples *)
  r_times : int array;
  r_values : float array;
  mutable r_start : int;
  mutable r_len : int;
  (* all-time aggregates, exact regardless of what the ring dropped *)
  mutable a_count : int;
  mutable a_last : float;
  mutable a_min : float;
  mutable a_max : float;
  mutable a_sum : float;
}

type direction = Above | Below

type signal =
  | Last
  | Window_mean
  | Window_min
  | Window_max
  | Window_rate
  | Window_ratio of string

type rule = {
  ru_name : string;
  ru_series : series;
  ru_denom : series option;  (* Window_ratio denominator *)
  ru_signal : signal;
  ru_window : int;
  ru_direction : direction;
  ru_fire : float;
  ru_clear : float;
  mutable ru_active : bool;
}

type alert = {
  al_time : Time_ns.t;
  al_rule : string;
  al_fired : bool;
  al_value : float;
}

type t = {
  tl_capacity : int;
  tl_obs : Obs.t;
  tl_index : (string, series) Hashtbl.t;
  mutable tl_series : series list;  (* reverse registration order *)
  mutable tl_rules : rule list;  (* reverse registration order *)
  mutable tl_scrapes : int;
  mutable tl_last_time : int;
  mutable tl_alerts : alert list;  (* reverse chronological *)
}

let create ?(capacity = 720) ?(obs = Obs.null) () =
  if capacity < 1 then invalid_arg "Telemetry.create: capacity must be >= 1";
  {
    tl_capacity = capacity;
    tl_obs = obs;
    tl_index = Hashtbl.create 32;
    tl_series = [];
    tl_rules = [];
    tl_scrapes = 0;
    tl_last_time = min_int;
    tl_alerts = [];
  }

let scrapes t = t.tl_scrapes

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let register t ~kind ~help ~name probe =
  if Hashtbl.mem t.tl_index name then
    invalid_arg
      (Printf.sprintf "Telemetry.register: duplicate series %S" name);
  let s =
    {
      se_name = name;
      se_help = help;
      se_kind = kind;
      se_probe = probe;
      r_times = Array.make t.tl_capacity 0;
      r_values = Array.make t.tl_capacity 0.0;
      r_start = 0;
      r_len = 0;
      a_count = 0;
      a_last = 0.0;
      a_min = infinity;
      a_max = neg_infinity;
      a_sum = 0.0;
    }
  in
  Hashtbl.add t.tl_index name s;
  t.tl_series <- s :: t.tl_series

let register_gauge t ?(help = "") ~name probe =
  register t ~kind:Gauge ~help ~name probe

let register_counter t ?(help = "") ~name probe =
  register t ~kind:Counter ~help ~name probe

let find_exn t ~what name =
  match Hashtbl.find_opt t.tl_index name with
  | Some s -> s
  | None ->
      invalid_arg (Printf.sprintf "Telemetry.add_rule: unknown %s %S" what name)

let add_rule t ~name ~series ?(window = 1) ~signal ~direction ~fire ~clear () =
  if window < 1 || window > t.tl_capacity then
    invalid_arg "Telemetry.add_rule: window out of range";
  (match direction with
  | Above when not (clear < fire) ->
      invalid_arg "Telemetry.add_rule: Above needs clear < fire"
  | Below when not (clear > fire) ->
      invalid_arg "Telemetry.add_rule: Below needs clear > fire"
  | _ -> ());
  let se = find_exn t ~what:"series" series in
  let denom =
    match signal with
    | Window_ratio d -> Some (find_exn t ~what:"ratio denominator" d)
    | _ -> None
  in
  let r =
    {
      ru_name = name;
      ru_series = se;
      ru_denom = denom;
      ru_signal = signal;
      ru_window = window;
      ru_direction = direction;
      ru_fire = fire;
      ru_clear = clear;
      ru_active = false;
    }
  in
  t.tl_rules <- r :: t.tl_rules

(* ------------------------------------------------------------------ *)
(* Scraping                                                            *)
(* ------------------------------------------------------------------ *)

let push s ~time v =
  if s.r_len < Array.length s.r_times then begin
    let i = (s.r_start + s.r_len) mod Array.length s.r_times in
    s.r_times.(i) <- time;
    s.r_values.(i) <- v;
    s.r_len <- s.r_len + 1
  end
  else begin
    (* full: overwrite the oldest *)
    s.r_times.(s.r_start) <- time;
    s.r_values.(s.r_start) <- v;
    s.r_start <- (s.r_start + 1) mod Array.length s.r_times
  end;
  s.a_count <- s.a_count + 1;
  s.a_last <- v;
  if v < s.a_min then s.a_min <- v;
  if v > s.a_max then s.a_max <- v;
  s.a_sum <- s.a_sum +. v

(* The i-th retained sample of [s], 0 = oldest. *)
let ring_value s i = s.r_values.((s.r_start + i) mod Array.length s.r_times)
let ring_time s i = s.r_times.((s.r_start + i) mod Array.length s.r_times)

(* Aggregate over the last [window] retained samples (fewer if the series
   is younger than the window). *)
let window_signal s ~window ~denom = function
  | Last -> if s.r_len = 0 then 0.0 else ring_value s (s.r_len - 1)
  | Window_mean | Window_min | Window_max as sig_ ->
      if s.r_len = 0 then 0.0
      else begin
        let first = Int.max 0 (s.r_len - window) in
        let n = s.r_len - first in
        let acc = ref (ring_value s first) in
        for i = first + 1 to s.r_len - 1 do
          let v = ring_value s i in
          acc :=
            (match sig_ with
            | Window_mean -> !acc +. v
            | Window_min -> Stdlib.min !acc v
            | Window_max -> Stdlib.max !acc v
            | _ -> assert false)
        done;
        if sig_ = Window_mean then !acc /. float_of_int n else !acc
      end
  | Window_rate ->
      if s.r_len < 2 then 0.0
      else
        let first = Int.max 0 (s.r_len - 1 - window) in
        ring_value s (s.r_len - 1) -. ring_value s first
  | Window_ratio _ -> (
      match denom with
      | None -> assert false
      | Some d ->
          let delta se =
            if se.r_len < 2 then 0.0
            else
              let first = Int.max 0 (se.r_len - 1 - window) in
              ring_value se (se.r_len - 1) -. ring_value se first
          in
          let dd = delta d in
          if dd <= 0.0 then 0.0 else delta s /. dd)

let eval_rule t ~time r =
  let v =
    window_signal r.ru_series ~window:r.ru_window ~denom:r.ru_denom r.ru_signal
  in
  let crossed_fire =
    match r.ru_direction with
    | Above -> v >= r.ru_fire
    | Below -> v <= r.ru_fire
  in
  let crossed_clear =
    match r.ru_direction with
    | Above -> v <= r.ru_clear
    | Below -> v >= r.ru_clear
  in
  let transition fired =
    r.ru_active <- fired;
    t.tl_alerts <-
      { al_time = time; al_rule = r.ru_name; al_fired = fired; al_value = v }
      :: t.tl_alerts;
    if Obs.on t.tl_obs then begin
      let value_ppm = int_of_float (Float.round (v *. 1e6)) in
      Obs.emit t.tl_obs ~time ~stream:Trace.telemetry_stream
        (if fired then Trace.Alert_fire { rule = r.ru_name; value_ppm }
         else Trace.Alert_clear { rule = r.ru_name; value_ppm })
    end
  in
  if (not r.ru_active) && crossed_fire then transition true
  else if r.ru_active && crossed_clear then transition false

let scrape t ~time =
  if time < t.tl_last_time then
    invalid_arg "Telemetry.scrape: time went backwards";
  t.tl_last_time <- time;
  t.tl_scrapes <- t.tl_scrapes + 1;
  List.iter (fun s -> push s ~time (s.se_probe ())) (List.rev t.tl_series);
  List.iter (fun r -> eval_rule t ~time r) (List.rev t.tl_rules)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

type series_summary = {
  ts_name : string;
  ts_kind : kind;
  ts_samples : int;
  ts_last : float;
  ts_min : float;
  ts_max : float;
  ts_mean : float;
}

let summarize s =
  if s.a_count = 0 then
    {
      ts_name = s.se_name;
      ts_kind = s.se_kind;
      ts_samples = 0;
      ts_last = 0.0;
      ts_min = 0.0;
      ts_max = 0.0;
      ts_mean = 0.0;
    }
  else
    {
      ts_name = s.se_name;
      ts_kind = s.se_kind;
      ts_samples = s.a_count;
      ts_last = s.a_last;
      ts_min = s.a_min;
      ts_max = s.a_max;
      ts_mean = s.a_sum /. float_of_int s.a_count;
    }

let in_order t = List.rev t.tl_series
let series_names t = List.map (fun s -> s.se_name) (in_order t)
let summaries t = List.map summarize (in_order t)

let summary_of t name =
  Option.map summarize (Hashtbl.find_opt t.tl_index name)

let window t name =
  match Hashtbl.find_opt t.tl_index name with
  | None -> []
  | Some s ->
      List.init s.r_len (fun i -> (ring_time s i, ring_value s i))

let alerts t = List.rev t.tl_alerts

let active_rules t =
  List.filter_map
    (fun r -> if r.ru_active then Some r.ru_name else None)
    (List.rev t.tl_rules)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let glyphs = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87";
                "\xe2\x96\x88" |]

let sparkline_of ?(width = 60) samples =
  match samples with
  | [] -> "(no samples)"
  | (t0, v0) :: _ ->
      let t1, _ = List.nth samples (List.length samples - 1) in
      let span = Int.max 1 (t1 - t0) in
      (* average the samples landing in each bucket; carry the previous
         level across empty buckets *)
      let sums = Array.make width 0.0 and counts = Array.make width 0 in
      let lo = ref v0 and hi = ref v0 in
      List.iter
        (fun (time, v) ->
          let b = Int.min (width - 1) ((time - t0) * width / span) in
          sums.(b) <- sums.(b) +. v;
          counts.(b) <- counts.(b) + 1;
          if v < !lo then lo := v;
          if v > !hi then hi := v)
        samples;
      let lo = !lo in
      let range = if !hi -. lo <= 0.0 then 1.0 else !hi -. lo in
      let buf = Buffer.create (width * 3) in
      let level = ref 0.0 in
      for b = 0 to width - 1 do
        if counts.(b) > 0 then level := sums.(b) /. float_of_int counts.(b);
        let g = 1 + int_of_float (7.99 *. (!level -. lo) /. range) in
        Buffer.add_string buf glyphs.(Int.max 1 (Int.min 8 g))
      done;
      Buffer.contents buf

let sparkline ?width t name = sparkline_of ?width (window t name)

let pp_summary fmt ts =
  if ts.ts_samples = 0 then
    Format.fprintf fmt "%-16s (no samples)" ts.ts_name
  else
    Format.fprintf fmt "%-16s min %.0f  mean %.0f  max %.0f  last %.0f"
      ts.ts_name ts.ts_min ts.ts_mean ts.ts_max ts.ts_last

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* OpenMetrics metric names: [a-zA-Z_:][a-zA-Z0-9_:]* — everything else
   becomes an underscore. *)
let sanitize name =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    name

(* %g loses nothing on the small integral levels probes report and keeps
   the CSV/OpenMetrics output free of trailing zeros. *)
let value_lexeme v = Printf.sprintf "%g" v

let to_openmetrics t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      let name = "memhog_" ^ sanitize s.se_name in
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" name (kind_name s.se_kind));
      if s.se_help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name s.se_help);
      let sample_name =
        match s.se_kind with Counter -> name ^ "_total" | Gauge -> name
      in
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n" sample_name
           (value_lexeme (if s.a_count = 0 then 0.0 else s.a_last))))
    (in_order t);
  (match List.rev t.tl_rules with
  | [] -> ()
  | rules ->
      Buffer.add_string buf "# TYPE memhog_alert_active gauge\n";
      Buffer.add_string buf
        "# HELP memhog_alert_active Alert rules currently in the fired state.\n";
      List.iter
        (fun r ->
          Buffer.add_string buf
            (Printf.sprintf "memhog_alert_active{rule=\"%s\"} %d\n"
               (sanitize r.ru_name)
               (if r.ru_active then 1 else 0)))
        rules);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "series,time_ns,value\n";
  List.iter
    (fun s ->
      for i = 0 to s.r_len - 1 do
        Buffer.add_string buf
          (Printf.sprintf "%s,%d,%s\n" s.se_name (ring_time s i)
             (value_lexeme (ring_value s i)))
      done)
    (in_order t);
  Buffer.contents buf

let alerts_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "time_ns,rule,event,value\n";
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%s\n" a.al_time a.al_rule
           (if a.al_fired then "fire" else "clear")
           (value_lexeme a.al_value)))
    (alerts t);
  Buffer.contents buf
