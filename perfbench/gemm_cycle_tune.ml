(* Workload gemm_cycle_tune: [Tuner.tune ~fidelity:`Cycle] over the
   distinct GEMM workloads of the lowered zoo — the only path that
   exercises the opt-in cycle tier.

   Each tuning call ranks a seeded, stratified draw of configs from the
   workload's [Space.matmul_with_split_k]. Exhaustive cycle-tier tuning
   costs 5-19 s per shape, so a run could tune only one or two shapes and
   the seed's choice of shape alone would move the per-candidate cost by
   about +-30%; drawing candidates over every zoo workload in each run
   keeps the workload mix fixed and leaves the seed to choose the configs.
   A round tunes every workload once; each round of a run draws afresh,
   so a run's rounds sample several draws and the seed's luck in one draw
   weighs less. *)

open Common
module MT = Hidet_sched.Matmul_template
module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module Passes = Hidet_graph.Passes

let draw = 4

type workload = {
  batch : int;
  a_batched : bool;
  b_batched : bool;
  m : int;
  n : int;
  k : int;
}

let describe w =
  Printf.sprintf "%dx%dx%d(b%d%s%s)" w.m w.n w.k w.batch
    (if w.a_batched then "A" else "")
    (if w.b_batched then "B" else "")

(* The matmul workloads [Hidet_engine] tunes for the zoo: the same A/B
   batching rules, over each model's lowered and optimized graph. *)
let of_matmul sa sb =
  let a_batched, batch_a, m, k =
    match sa with
    | [ m; k ] -> (false, 1, m, k)
    | [ b; m; k ] -> (true, b, m, k)
    | _ -> invalid_arg "gemm_cycle_tune: matmul A rank"
  in
  let b_batched, batch_b, n =
    match sb with
    | [ _; n ] -> (false, 1, n)
    | [ b; _; n ] -> (true, b, n)
    | _ -> invalid_arg "gemm_cycle_tune: matmul B rank"
  in
  { batch = max batch_a batch_b; a_batched; b_batched; m; n; k }

let lower g =
  span "graph" "lower" (fun () ->
      Passes.optimize (Passes.lower_conv_to_gemm g))

let workloads () =
  Zoo_compile.graphs ()
  |> List.concat_map (fun (_, g) ->
         let g = lower g in
         List.filter_map
           (fun (nd : G.node) ->
             match (nd.G.op, List.map (G.node_shape g) nd.G.inputs) with
             | Op.Matmul, [ sa; sb ] -> Some (of_matmul sa sb)
             | _ -> None)
           (G.nodes g))
  |> List.sort_uniq compare

let space w = Array.of_list (Hidet_sched.Space.matmul_with_split_k ~m:w.m ~n:w.n)

(* A stratified sample for round [round] of workload [index]: the space
   split into [draw] contiguous strata, one seeded pick from each, so every
   draw spans the space's tile sizes, pipeline depths and split-k
   factors. *)
let candidates ~seed ~round ~index w =
  let sp = space w in
  let n = Array.length sp in
  let rs = Random.State.make [| seed; round; index |] in
  let strata = min draw n in
  List.init strata (fun j ->
      let lo = j * n / strata and hi = (j + 1) * n / strata in
      sp.(lo + Random.State.int rs (hi - lo)))

let instantiate w cfg =
  MT.compile ~batch:w.batch ~a_batched:w.a_batched ~b_batched:w.b_batched ~m:w.m
    ~n:w.n ~k:w.k cfg

(* Whether [cfg] instantiates and fits on the device: the occupancy test
   both latency tiers apply before any estimate. *)
let feasible w cfg =
  span "sched" "feasible" (fun () ->
      match instantiate w cfg with
      | exception Invalid_argument _ -> false
      | c ->
        List.for_all
          (fun k ->
            Result.is_ok
              (Hidet_gpu.Perf_model.blocks_per_sm_limit device
                 ~block_dim:k.Hidet_ir.Kernel.block_dim ~smem:(Hidet_ir.Kernel.shared_bytes k)
                 ~regs:(Hidet_ir.Kernel.regs_per_thread k)))
          c.Hidet_sched.Compiled.kernels)

let tune w cands =
  span "sched" "cycle_tune" (fun () ->
      Hidet_sched.Tuner.tune ~fidelity:`Cycle ~parallel:false ~device
        ~candidates:cands ~compile:(instantiate w) ())

let best_latency = function
  | Some (_, _, st) -> st.Hidet_sched.Tuner.best_latency
  | None -> Float.infinity

type round = {
  measured : measured;  (** the round's tuning calls, summed *)
  candidates : int;
  best_s : float list;  (** each workload's winner, cycle-tier seconds *)
}

(* Round [round]: every workload, in order, with its draws, one
   calibrated thunk per tuning call. Untimed afterwards: a workload whose
   draw holds no feasible config is tuned over the template's default
   config alone, and every workload must end with a feasible winner. *)
let round ~seed ~round tally ws =
  let draws = List.mapi (fun index w -> (w, candidates ~seed ~round ~index w)) ws in
  (* As in [Tiny_serve.run]: a collected heap before each round. *)
  Gc.full_major ();
  let results, measured =
    calibrated (List.map (fun (w, cands) () -> best_latency (tune w cands)) draws)
  in
  let best_s =
    List.map2
      (fun (w, _) best ->
        let best = if Float.is_finite best then best else best_latency (tune w [ MT.default_config ]) in
        expect tally (Float.is_finite best)
          (Printf.sprintf "gemm_cycle_tune: no feasible winner for %s" (describe w));
        best)
      draws results
  in
  let candidates = List.fold_left (fun n (_, cs) -> n + List.length cs) 0 draws in
  { measured; candidates; best_s }

let best_modeled_us r = List.fold_left ( +. ) 0. r.best_s *. 1e6

(* Per-candidate wall time of a round, in ms. *)
let per_candidate_ms r =
  { r.measured with wall_s = r.measured.wall_s *. 1e3 /. float r.candidates }

(* Feasible configs among round 0's draws and among the full spaces, each
   pooled over the workloads. *)
let feasible_fracs ~seed ws =
  let frac pairs =
    float (List.length (List.filter (fun (w, c) -> feasible w c) pairs))
    /. float (max 1 (List.length pairs))
  in
  let each f = List.concat (List.mapi (fun index w -> List.map (fun c -> (w, c)) (f index w)) ws) in
  ( frac (each (fun index w -> candidates ~seed ~round:0 ~index w)),
    frac (each (fun _ w -> Array.to_list (space w))) )

type run = {
  setup : measured list;
  rounds : round list;
  guard_us : float;  (** round 0's winners *)
}

(* Five set-ups, then a fixed number of rounds per [seconds]. *)
let run ~seed ~seconds tally =
  let ws, setup = repeat_setup 5 (fun () -> calibrated1 ~units:2 workloads) in
  let rounds =
    List.init (repeats ~seconds ~nominal_s:3.9) (fun r -> round ~seed ~round:r tally ws)
  in
  { setup; rounds; guard_us = best_modeled_us (List.hd rounds) }
