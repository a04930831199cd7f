(** Unified telemetry registry: typed metrics, windowed series, alert rules.

    Every subsystem registers {e probes} — closures reading a counter or a
    gauge — into a per-cell registry.  The experiment harness calls
    {!scrape} on a deterministic sim-time cadence; each scrape samples every
    probe into a fixed-capacity ring-buffered series (plus exact all-time
    aggregates), then evaluates the registered rolling-window alert rules.
    Nothing here touches the engine: a scrape is a pure function of the
    probes and simulated time, so a cell's telemetry is byte-identical at
    any [--jobs] level.

    Alert rules fire and clear with hysteresis: a rule transitions to
    {e active} only when its signal crosses the fire threshold and back to
    {e inactive} only when it crosses the (strictly separated) clear
    threshold — a signal oscillating strictly between the two thresholds
    never chatters.  Every transition is appended to the alert timeline and
    emitted on the observation bus ({!Obs}) as a typed {!Trace} event
    ([Alert_fire] / [Alert_clear] on {!Trace.telemetry_stream}), so alerts
    land in the Chrome trace.

    Exporters: OpenMetrics text exposition ({!to_openmetrics}), per-series
    CSV ({!to_csv}), alert-timeline CSV ({!alerts_csv}), and unicode
    sparklines over the retained window ({!sparkline}). *)

type t

val create : ?capacity:int -> ?obs:Obs.t -> unit -> t
(** An empty registry.  [capacity] (default 720) is the per-series retained
    ring size — at the harness's 100 ms scrape cadence, 72 s of history.
    All-time aggregates (count/last/min/max/mean) are exact regardless of
    what the ring has dropped.  Alert fire/clear events are emitted on
    [obs] (default {!Obs.null}). *)

(** {1 Registration}

    Registration order is the export order everywhere (JSON, OpenMetrics,
    CSV, dashboards); register deterministically.  Names must be unique. *)

type kind = Counter | Gauge

val kind_name : kind -> string
(** ["counter"] / ["gauge"]. *)

val register_gauge : t -> ?help:string -> name:string -> (unit -> float) -> unit
(** A point-in-time level (free frames, RSS, queue depth, breaker state).
    @raise Invalid_argument when [name] is already registered. *)

val register_counter :
  t -> ?help:string -> name:string -> (unit -> float) -> unit
(** A monotone running total (faults, timeouts, transitions); alert rules
    read counters through window deltas, never levels. *)

(** {1 Alert rules} *)

type direction =
  | Above  (** fire when the signal reaches [fire] from below *)
  | Below  (** fire when the signal reaches [fire] from above *)

type signal =
  | Last  (** the series' latest sample *)
  | Window_mean
  | Window_min
  | Window_max  (** aggregate of the last [window] retained samples *)
  | Window_rate
      (** newest minus oldest sample over the window: a counter's increase
          across the last [window] scrapes *)
  | Window_ratio of string
      (** this series' window delta divided by the named series' window
          delta (0 when the denominator did not move): e.g. SLO-missed
          over recorded — a burn rate *)

val add_rule :
  t ->
  name:string ->
  series:string ->
  ?window:int ->
  signal:signal ->
  direction:direction ->
  fire:float ->
  clear:float ->
  unit ->
  unit
(** [window] (default 1) counts scrapes and must not exceed the ring
    capacity.  Hysteresis demands strict threshold separation:
    [clear < fire] for [Above], [clear > fire] for [Below].
    @raise Invalid_argument on an unknown series (either side of a
    [Window_ratio]), a bad window, or unseparated thresholds. *)

(** {1 Scraping} *)

val scrape : t -> time:Time_ns.t -> unit
(** Sample every probe, then evaluate every rule, in registration order.
    Scrape times must be nondecreasing.
    @raise Invalid_argument when time goes backwards. *)

val scrapes : t -> int

(** {1 Queries} *)

type series_summary = {
  ts_name : string;
  ts_kind : kind;
  ts_samples : int;  (** all-time sample count (not just retained) *)
  ts_last : float;
  ts_min : float;
  ts_max : float;
  ts_mean : float;  (** all-time aggregates; 0 everywhere when empty *)
}

type alert = {
  al_time : Time_ns.t;
  al_rule : string;
  al_fired : bool;  (** [true] = fire, [false] = clear *)
  al_value : float;  (** the signal value at the transition *)
}

val series_names : t -> string list
val summaries : t -> series_summary list
val summary_of : t -> string -> series_summary option

val window : t -> string -> (Time_ns.t * float) list
(** The retained ring of a series, oldest first; [[]] for unknown names. *)

val alerts : t -> alert list
(** The full fire/clear timeline, chronological. *)

val active_rules : t -> string list
(** Rules currently in the fired state, registration order. *)

(** {1 Rendering and export} *)

val sparkline_of : ?width:int -> (Time_ns.t * float) list -> string
(** Resample to [width] buckets (default 60) and render with the eight
    one-eighth block glyphs, averaging the samples landing in each bucket
    and carrying the previous level across empty ones; an empty input
    renders as "(no samples)". *)

val sparkline : ?width:int -> t -> string -> string
(** {!sparkline_of} over the series' retained window. *)

val pp_summary : Format.formatter -> series_summary -> unit
(** One line: name, min/mean/max/last. *)

val to_openmetrics : t -> string
(** OpenMetrics text exposition: [# TYPE]/[# HELP] metadata per metric,
    counters suffixed [_total], rule states as
    [memhog_alert_active{rule="..."}] gauges, terminated by [# EOF]. *)

val to_csv : t -> string
(** ["series,time_ns,value"] rows over every retained window, registration
    order then time order. *)

val alerts_csv : t -> string
(** ["time_ns,rule,event,value"] rows over the alert timeline. *)
