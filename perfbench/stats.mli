(** Order statistics for the benchmark's reports.

    Percentiles are nearest-rank: the [p]-th percentile of [n] sorted
    samples is the sample of rank [ceil (p * n / 100)], so every reported
    value is an observed sample, never an interpolation. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [0 < p <= 100]; raises [Invalid_argument] on an
    empty list or [p] out of range. *)

val median : float list -> float
(** [percentile 50.]. *)

type tail = { pct : int; value : float; beyond : int }
(** The [pct]-th percentile, its value, and how many samples lie above its
    rank. *)

val tail : float list -> tail
(** The highest integer percentile in [50 .. 99] that has at least 10
    samples beyond its rank; the median, with
    however many samples lie beyond it, when none has. Raises
    [Invalid_argument] on an empty list. *)
