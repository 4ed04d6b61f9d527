(* The traced run: one traced pass of every workload's phases, with the
   benchmark's spans around each layer's public calls, so every per-layer
   metric is measured in every traced run. Numbers come from those spans,
   from the engine's own result records and from the libraries' metric
   counters — never from the spans the libraries record themselves. *)

open Common
module S = Hidet_serve
module Plan = Hidet_runtime.Plan
module Engine = Hidet_runtime.Engine
module Cache = Hidet_sched.Schedule_cache
module Passes = Hidet_graph.Passes
module G = Hidet_graph.Graph
module GC = Gemm_cycle_tune

type acc = { mutable metrics : (string * float) list }

let put acc name v = acc.metrics <- (name, v) :: acc.metrics

let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs

(* Wall time of [f ()] with tracing switched off: the untraced side of the
   trace-overhead comparison. *)
let untraced f =
  let r = Trace.recorder () in
  Trace.set_recorder Trace.noop;
  Fun.protect ~finally:(fun () -> Trace.set_recorder r) (fun () -> snd (timed f))

let zoo acc tally =
  let gs = Zoo_compile.graphs () in
  let groups =
    span "bench" "zoo_compile.passes" (fun () ->
        List.fold_left
          (fun n (_, g) ->
            span "graph" "passes" (fun () -> n + List.length (Passes.partition (GC.lower g))))
          0 gs)
  in
  put acc "graph.groups" (float groups);
  let trials0 = counter "tuner.trials" and rejected0 = counter "tuner.rejected" in
  let cold, cold_s =
    timed (fun () -> span "bench" "zoo_compile.cold" (fun () -> Zoo_compile.cold gs))
  in
  Zoo_compile.check tally cold;
  let hit_frac h m = float h /. float (max 1 (h + m)) in
  put acc "sched.cache_hit_frac.zoo_cold" (hit_frac (Cache.hits ()) (Cache.misses ()));
  put acc "sched.trials.zoo_cold" (float (counter "tuner.trials" - trials0));
  put acc "sched.rejected.zoo_cold" (float (counter "tuner.rejected" - rejected0));
  let tuning (c : Zoo_compile.compiled) = c.Zoo_compile.result.Engine.tuning_wall in
  put acc "sched.tune_wall_ms" (sum tuning cold *. 1e3);
  put acc "sched.tune_share.zoo_cold" (sum tuning cold /. cold_s);
  put acc "runtime.modeled_latency_us" (Zoo_compile.modeled_latency_us cold);
  put acc "runtime.kernels"
    (sum (fun c -> float (Plan.kernel_count c.Zoo_compile.plan)) cold);
  let fallback0 = counter "fusion.fallback_kernels" in
  let h0 = Cache.hits () and m0 = Cache.misses () in
  let warm = span "bench" "zoo_compile.warm" (fun () -> Zoo_compile.compile_all gs) in
  Zoo_compile.check tally ~reference:cold warm;
  put acc "sched.cache_hit_frac.zoo_warm"
    (hit_frac (Cache.hits () - h0) (Cache.misses () - m0));
  put acc "fusion.fallback_kernels"
    (float (counter "fusion.fallback_kernels" - fallback0));
  put acc "sched.warm_tune_wall_ms" (sum tuning warm *. 1e3);
  put acc "runtime.non_tune_ms"
    (sum (fun c -> c.Zoo_compile.result.Engine.compile_wall -. tuning c) warm *. 1e3);
  (* Trace overhead: the warm pass with tracing off and on, interleaved. *)
  let off = ref [] and on = ref [] in
  for _ = 1 to 3 do
    off := untraced (fun () -> Zoo_compile.compile_all gs) :: !off;
    on :=
      snd
        (timed (fun () ->
             span "bench" "zoo_compile.warm" (fun () -> Zoo_compile.compile_all gs)))
      :: !on
  done;
  put acc "obs.trace_overhead_frac" (Stats.median !on /. Stats.median !off -. 1.)

let serve acc tally ~seed =
  let trials0 = counter "tuner.trials" in
  let m =
    span "bench" "tiny_serve.setup" Tiny_serve.setup
  in
  put acc "sched.trials.serve_load" (float (counter "tuner.trials" - trials0));
  let lg = Tiny_serve.loadgen seed 0 in
  let sched, responses, mismatches, stmts, exec_s =
    span "bench" "tiny_serve.trace" (fun () ->
        let sched =
          span "serve" "simulate" (fun () ->
              S.Server.simulate Tiny_serve.config ~latency:(S.Registry.latency m) lg)
        in
        let s0 = counter "sim.statements" in
        let responses, exec_s =
          timed (fun () ->
              span "serve" "execute" (fun () ->
                  S.Pool.execute ~workers:1 ~seed:lg.S.Loadgen.seed m sched.S.Server.batches))
        in
        let stmts = counter "sim.statements" - s0 in
        let mismatches =
          span "serve" "check" (fun () ->
              S.Pool.check ~seed:lg.S.Loadgen.seed m responses)
        in
        (sched, responses, mismatches, stmts, exec_s))
  in
  expect tally (mismatches = 0)
    (Printf.sprintf "tiny_serve: Pool.check found %d mismatches" mismatches);
  Tiny_serve.reference_check tally m lg responses;
  put acc "gpu.stmts_per_s" (float stmts /. exec_s);
  let st = S.Server.stats sched in
  put acc "serve.batches" (float st.S.Server.batches);
  put acc "serve.mean_batch" st.S.Server.mean_batch;
  put acc "serve.padding_frac" st.S.Server.padding_frac;
  put acc "serve.virtual_e2e_p99_ms" (st.S.Server.e2e_p99 *. 1e3);
  (* Per-batch execution, one batch per call, over the batches of traces
     0 to 3 so the tail percentile has enough samples beyond it. *)
  let batches =
    List.map (fun b -> (seed, b)) sched.S.Server.batches
    @ List.concat_map
        (fun j ->
          let lg = Tiny_serve.loadgen seed j in
          List.map
            (fun b -> (lg.S.Loadgen.seed, b))
            (S.Server.simulate Tiny_serve.config ~latency:(S.Registry.latency m) lg)
              .S.Server.batches)
        [ 1; 2; 3 ]
  in
  let batch_ms =
    span "bench" "tiny_serve.batches" (fun () ->
        List.map
          (fun (seed, b) ->
            1e3
            *. snd
                 (timed (fun () ->
                      span "serve" "batch_exec" (fun () ->
                          S.Pool.execute ~workers:1 ~seed m [ b ]))))
          batches)
  in
  put acc "serve.batch_exec_p50_ms" (Stats.median batch_ms);
  let tail = Stats.tail batch_ms in
  put acc "serve.batch_exec_tail_ms" tail.Stats.value;
  put acc "serve.batch_exec_tail_pct" (float tail.Stats.pct);
  put acc "serve.batch_exec_beyond" (float tail.Stats.beyond);
  (* Both executors on the bucket-8 plan's steps. *)
  let v8 = S.Registry.variant_exn m 8 in
  let plan = v8.S.Registry.plan in
  let bindings =
    List.combine (G.input_ids plan.Plan.graph) (Tiny_serve.bucket_inputs m 8)
  in
  let run_on backend name =
    let steps = Array.make (List.length plan.Plan.steps) 0. in
    let around i _ exec =
      let r, dt = timed exec in
      steps.(i) <- steps.(i) +. dt;
      r
    in
    let s0 = counter "sim.statements" in
    let out, dt =
      timed (fun () -> span "gpu" name (fun () -> Plan.run ~around ~backend plan bindings))
    in
    (out, float (counter "sim.statements" - s0) /. dt, steps)
  in
  let native_us () =
    counter "sim.native.codegen_us" + counter "sim.native.ocamlopt_us"
    + counter "sim.native.dynlink_us"
  in
  span "bench" "tiny_serve.executors" (fun () ->
      let closure_out, closure_rate, steps = run_on `Closure "closure_run" in
      put acc "gpu.closure.stmts_per_s" closure_rate;
      let total = Array.fold_left ( +. ) 0. steps in
      put acc "runtime.step_max_share" (Array.fold_left Float.max 0. steps /. total);
      let n0 = native_us () in
      ignore (run_on `Native "native_first_run");
      put acc "gpu.native.compile_ms" (float (native_us () - n0) /. 1e3);
      let native_out, native_rate, _ = run_on `Native "native_run" in
      put acc "gpu.native.stmts_per_s" native_rate;
      expect tally
        (List.for_all2
           (fun a b -> Hidet_tensor.Tensor.data a = Hidet_tensor.Tensor.data b)
           closure_out native_out)
        "tiny_serve: native and closure executors disagree on the bucket-8 plan");
  match Hidet_gpu.Exec_ocaml.available () with
  | Ok () -> ()
  | Error why ->
    Printf.eprintf "perfbench: native backend unavailable (%s); gpu.native.* measured the closure fallback\n%!" why

(* Per-candidate layer costs over a seeded draw of (workload, config)
   pairs from the zoo GEMMs' full spaces. *)
let probe_pairs ~seed ~salt ws n =
  let rs = Random.State.make [| seed; salt |] in
  let arr = Array.of_list ws in
  List.init n (fun _ ->
      let w = arr.(Random.State.int rs (Array.length arr)) in
      let sp = GC.space w in
      (w, sp.(Random.State.int rs (Array.length sp))))
  |> List.filter_map (fun (w, cfg) ->
         match span "sched" "instantiate" (fun () -> GC.instantiate w cfg) with
         | c -> Some c
         | exception Invalid_argument _ -> None)

let gemm acc tally ~seed =
  let ws = span "bench" "gemm_cycle_tune.setup" GC.workloads in
  let kernels c = c.Hidet_sched.Compiled.kernels in
  let d = device in
  let analytic =
    span "bench" "gemm_cycle_tune.analytic_probe" (fun () ->
        let cs = probe_pairs ~seed ~salt:1 ws 600 in
        List.iter
          (fun c ->
            List.iter
              (fun k ->
                ignore
                  (span "gpu" "estimate" (fun () ->
                       Hidet_gpu.Perf_model.estimate ~fidelity:`Analytic d k));
                ignore (span "gpu" "traffic" (fun () -> Hidet_gpu.Traffic.kernel k));
                ignore
                  (span "gpu" "block_reuse" (fun () ->
                       Hidet_gpu.Traffic.block_reuse ~window:d.Hidet_gpu.Device.l2_reuse_window k)))
              (kernels c))
          cs;
        List.length cs)
  in
  let n_static = ref 0 and n_traced = ref 0 and stream = ref 0 and n_kernels = ref 0 in
  let cycle =
    span "bench" "gemm_cycle_tune.cycle_probe" (fun () ->
        let cs = probe_pairs ~seed ~salt:2 ws 40 in
        let line = d.Hidet_gpu.Device.cache_line_bytes in
        let geom =
          { Hidet_cycle.Cache_model.size = d.Hidet_gpu.Device.l1_size; line;
            ways = d.Hidet_gpu.Device.l1_ways }
        in
        List.iter
          (fun c ->
            List.iter
              (fun k ->
                ignore (span "cycle" "estimate" (fun () -> Hidet_cycle.Fidelity.estimate d k));
                ignore (span "cycle" "static" (fun () -> Hidet_cycle.Access.static_sites ~line k));
                let a = span "cycle" "analyze" (fun () -> Hidet_cycle.Access.analyze ~line k) in
                ignore
                  (span "cycle" "cache" (fun () ->
                       Hidet_cycle.Cache_model.simulate geom a.Hidet_cycle.Access.stream));
                n_static := !n_static + a.Hidet_cycle.Access.n_static;
                n_traced := !n_traced + a.Hidet_cycle.Access.n_traced;
                stream := !stream + Array.length a.Hidet_cycle.Access.stream;
                incr n_kernels)
              (kernels c))
          cs;
        List.length cs)
  in
  put acc "cycle.traced_site_frac"
    (float !n_traced /. float (max 1 (!n_static + !n_traced)));
  put acc "cycle.stream_len" (float !stream /. float (max 1 !n_kernels));
  let trials0 = counter "tuner.trials" and rejected0 = counter "tuner.rejected" in
  let round, tune_s =
    timed (fun () ->
        span "bench" "gemm_cycle_tune.tune" (fun () -> GC.round ~seed ~round:0 tally ws))
  in
  put acc "cycle.tune_s" tune_s;
  put acc "cycle.best_modeled_us" (GC.best_modeled_us round);
  put acc "sched.trials.gemm" (float (counter "tuner.trials" - trials0));
  put acc "sched.rejected.gemm" (float (counter "tuner.rejected" - rejected0));
  let draw_frac, space_frac =
    span "bench" "gemm_cycle_tune.feasibility" (fun () -> GC.feasible_fracs ~seed ws)
  in
  put acc "sched.draw_feasible_frac" draw_frac;
  put acc "sched.space_feasible_frac" space_frac;
  (analytic, cycle)

let per_call spans name calls = (Spans.by_name spans name).Spans.total_us /. float (max 1 calls)

let run ~seed ~trace_path tally =
  let acc = { metrics = [] } in
  let (analytic, cycle), events =
    Trace.with_collector (fun () ->
        zoo acc tally;
        serve acc tally ~seed;
        gemm acc tally ~seed)
  in
  let sp = Spans.of_events events in
  let ms name = (Spans.by_name sp name).Spans.total_us /. 1e3 in
  let zoo_passes = (Spans.by_name sp "runtime.plan_latency").Spans.count / List.length Zoo_compile.models in
  put acc "graph.passes_ms" (ms "graph.passes");
  put acc "runtime.plan_latency_ms" (ms "runtime.plan_latency" /. float zoo_passes);
  let instantiate = Spans.by_name sp "sched.instantiate" in
  put acc "sched.instantiate_us"
    (instantiate.Spans.total_us /. float (max 1 instantiate.Spans.count));
  put acc "gpu.estimate_us" (per_call sp "gpu.estimate" analytic);
  put acc "gpu.traffic_us" (per_call sp "gpu.traffic" analytic);
  put acc "gpu.block_reuse_us" (per_call sp "gpu.block_reuse" analytic);
  put acc "cycle.estimate_us" (per_call sp "cycle.estimate" cycle);
  put acc "cycle.static_us" (per_call sp "cycle.static" cycle);
  put acc "cycle.analyze_us" (per_call sp "cycle.analyze" cycle);
  put acc "cycle.cache_us" (per_call sp "cycle.cache" cycle);
  put acc "serve.load_s" (ms "serve.load" /. 1e3);
  put acc "serve.warmup_s" (ms "serve.warmup" /. 1e3);
  put acc "serve.simulate_ms" (ms "serve.simulate");
  put acc "serve.execute_s" (ms "serve.execute" /. 1e3);
  put acc "serve.check_s" (ms "serve.check" /. 1e3);
  List.iter
    (fun w -> put acc ("obs.unattributed_frac." ^ w) (Spans.unattributed_frac sp ("bench." ^ w ^ ".")))
    [ "zoo_compile"; "tiny_serve"; "gemm_cycle_tune" ];
  List.iter
    (fun l -> put acc (l ^ ".self_ms") (Spans.layer_self_us sp l /. 1e3))
    [ "graph"; "sched"; "gpu"; "cycle"; "runtime"; "serve" ];
  Hidet_obs.Chrome_trace.save trace_path events;
  (match Hidet_obs.Chrome_trace.check_file trace_path with
  | Ok n -> expect tally (n > 0) "ledger: empty Chrome trace"
  | Error msg -> expect tally false ("ledger: Chrome trace rejected: " ^ msg));
  List.rev acc.metrics
