(** Self time of the benchmark's own spans.

    Only spans carrying a ["layer"] attribute (those {!Common.span}
    records) take part; spans the libraries record themselves are ignored,
    so no number depends on in-program instrumentation. A span's self time
    is its duration minus the part its direct child spans cover (on one
    track, spans nest or are disjoint). *)

type agg = { count : int; total_us : float; self_us : float }

type t

val of_events : Hidet_obs.Trace.event list -> t

val by_name : t -> string -> agg
(** Aggregate over every span with this name; zeros when none. *)

val layer_self_us : t -> string -> float
(** Summed self time of every span of the layer. *)

val unattributed_frac : t -> string -> float
(** For the spans whose name starts with [prefix] (a workload's timed
    phases): the share of their summed duration that no child span covers.
    [0.] when there is no such span. *)
