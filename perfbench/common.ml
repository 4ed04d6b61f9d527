(* Shared plumbing: the device, wall timers, the benchmark's own trace
   spans, the outcome tally and the process's peak resident set. *)

module Trace = Hidet_obs.Trace

let device = Hidet_gpu.Device.rtx3090
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A benchmark span: named [<layer>.<call>] and tagged with its layer, so
   {!Spans} can tell the benchmark's spans from the ones the libraries
   record themselves. Free when tracing is off. *)
let span layer name f =
  Trace.span ~attrs:(fun () -> [ ("layer", layer) ]) (layer ^ "." ^ name)
    (fun _ -> f ())

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let expect t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* Peak resident set ([VmHWM]) in MB; Linux only, [nan] elsewhere. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line -> (
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float kb /. 1024.)
        | _ -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Host-speed calibration. On a shared machine the speed of a fixed loop
   drifts by tens of percent over seconds and minutes, and a run's wall
   times follow it. A calibration unit is a fixed piece of work in the
   style of the measured code (allocation, hashing, sorting, floats) that
   calls nothing of the repository; timing units next to the measured
   work tells how fast the host ran meanwhile. Each timed set-up or
   repeat is rescaled by [reference_unit_s /. median unit time], the
   median taken over the units timed around it, so a unit that a
   collection or an interrupt slowed down does not count; a phase of a run
   (its set-ups, or its repeats) reports the median of the rescaled
   times. *)
let calibration_unit () =
  let n = 4_000 in
  let h = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace h (i * 7919 mod n) (float i)
  done;
  List.init n (fun i -> sin (Hashtbl.find h i))
  |> List.sort Float.compare
  |> List.fold_left ( +. ) 0.

let reference_unit_s = 0.0013

type measured = {
  wall_s : float;
  units : float list;  (** the calibration units timed around it *)
}

(* Run the thunks in order, with [units] calibration units before the
   first and after each, and return their results and their summed time. *)
let calibrated ?(units = 1) fs =
  let cal = ref [] in
  let calibrate () =
    for _ = 1 to units do
      cal := snd (timed (fun () -> Sys.opaque_identity (calibration_unit ()))) :: !cal
    done
  in
  calibrate ();
  let rs =
    List.map
      (fun f ->
        let r = timed f in
        calibrate ();
        r)
      fs
  in
  let wall_s = List.fold_left (fun a (_, dt) -> a +. dt) 0. rs in
  (List.map fst rs, { wall_s; units = !cal })

(* One calibrated thunk. *)
let calibrated1 ?units f =
  match calibrated ?units [ f ] with [ r ], m -> (r, m) | _ -> assert false

(* A phase's median time, as measured and rescaled. *)
let as_measured ms = Stats.median (List.map (fun m -> m.wall_s) ms)

let rescaled ms =
  Stats.median (List.map (fun m -> m.wall_s *. reference_unit_s /. Stats.median m.units) ms)

(* A run measures a fixed number of repeats, the same on every commit,
   sized so that it lasts about [seconds] at the reference speed when one
   repeat takes [nominal_s] there. *)
let repeats ~seconds ~nominal_s = max 3 (int_of_float (Float.round (seconds /. nominal_s)))

(* Run [setup] (which returns its result and its calibrated time) [n]
   times. Only the last result is kept; earlier ones are dropped at once,
   so they do not count in the peak resident set. *)
let repeat_setup n setup =
  let times = List.init (n - 1) (fun _ -> snd (setup ())) in
  let r, m = setup () in
  (r, times @ [ m ])

let counter name = Hidet_obs.Metrics.value (Hidet_obs.Metrics.counter name)
