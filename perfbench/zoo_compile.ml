(* Workload zoo_compile: the paper's five-model zoo (Fig. 13) through
   [Hidet_engine.compile_plan] on the analytic tier with exhaustive search.
   Set-up compiles the zoo cold (schedule cache cleared), which is where
   the tuner does its work and fills the cache; the measured operation is
   a warm recompile of the whole zoo, which leaves graph passes,
   partitioning, fusion, winner instantiation and [Plan.latency]. The
   order is fixed so gpt2 reuses bert's tuned shapes. *)

open Common
module HE = Hidet.Hidet_engine
module Plan = Hidet_runtime.Plan
module Engine = Hidet_runtime.Engine

let models = [ "resnet50"; "inception_v3"; "mobilenet_v2"; "bert"; "gpt2" ]
let graphs () = List.map (fun m -> (m, Hidet_models.Models.by_name m)) models

type compiled = {
  model : string;
  plan : Plan.t;
  result : Engine.result;
  latency : float;  (** modeled seconds *)
}

let compile_one (model, g) =
  let plan, result =
    span "runtime" "compile_plan" (fun () -> HE.compile_plan device g)
  in
  let latency = span "runtime" "plan_latency" (fun () -> Plan.latency device plan) in
  { model; plan; result; latency }

let compile_all gs = List.map compile_one gs

let cold gs =
  Hidet_sched.Schedule_cache.clear ();
  compile_all gs

(* Every plan has a finite modeled latency and at least one kernel; a
   recompile reproduces the reference compile's latency bit for bit. *)
let check tally ?reference cs =
  List.iteri
    (fun i c ->
      expect tally
        (Float.is_finite c.latency && Plan.kernel_count c.plan >= 1
        &&
        match reference with
        | None -> true
        | Some r -> Float.equal (List.nth r i).latency c.latency)
        (Printf.sprintf "zoo_compile: %s latency %g, %d kernels" c.model
           c.latency (Plan.kernel_count c.plan)))
    cs

let modeled_latency_us cs =
  List.fold_left (fun acc c -> acc +. c.latency) 0. cs *. 1e6

type run = { setup : measured list; passes : measured list; guard_us : float }

(* The cold set-up (building the graphs, then one calibrated thunk per
   model), three times; each set-up's plans are checked against
   the first set-up's and then dropped, so the peak resident set holds one
   compiled zoo. Then the warm passes, a fixed number per [seconds], one
   calibrated thunk per model. *)
let run ~seconds tally =
  let setup () =
    let gs = ref [] in
    let build () =
      gs := graphs ();
      Hidet_sched.Schedule_cache.clear ();
      []
    in
    let compile i () = [ compile_one (List.nth !gs i) ] in
    let cs, m = calibrated ~units:20 (build :: List.init (List.length models) compile) in
    (!gs, List.concat cs, m)
  in
  let gs, reference, first = setup () in
  check tally reference;
  let rest =
    List.init 2 (fun _ ->
        let _, cs, m = setup () in
        check tally ~reference cs;
        m)
  in
  let passes =
    List.init (repeats ~seconds ~nominal_s:0.3) (fun _ ->
        let cs, m = calibrated (List.map (fun mg () -> compile_one mg) gs) in
        check tally ~reference cs;
        m)
  in
  { setup = first :: rest; passes; guard_us = modeled_latency_us reference }
