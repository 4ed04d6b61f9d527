(** The benchmark's metrics.

    [BENCHMARK.json] is the one source of every metric's name, unit and
    direction, and of which metrics the untraced runs (end-to-end) and the
    traced runs (per-layer) report; {!listed} reads it. The catalog adds
    what that file does not say: each metric's clock, and whether it is a
    guard. The tests check that both name the same metrics. *)

type clock =
  | Wall  (** real time of the benchmark process, or a ratio of two *)
  | Virtual  (** the serving simulation's clock *)
  | Modeled  (** the GPU latency model's output *)
  | Unclocked  (** counts, ratios and sizes *)

type t = {
  name : string;
  clock : clock;
  guard : bool;
      (** a deterministic output that must not drift; never a speedup *)
}

val all : t list
val find : string -> t option

type scope = End_to_end | Per_layer

type listed = { lname : string; unit_ : string; lower_is_better : bool }

val listed : scope -> listed list
(** The metrics of [scope] in ["BENCHMARK.json"] in the current directory,
    in file order. Raises [Failure] when the file is missing or
    malformed. *)
