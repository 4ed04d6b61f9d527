type clock = Wall | Virtual | Modeled | Unclocked
type t = { name : string; clock : clock; guard : bool }

let m ?(guard = false) clock name = { name; clock; guard }
let wall = m Wall
let plain = m Unclocked

let all =
  [
    wall "setup_s";
    wall "op_ms";
    plain "peak_rss_mb";
    (* hidet_graph *)
    wall "graph.passes_ms";
    plain "graph.groups";
    (* hidet_sched *)
    wall "sched.tune_wall_ms";
    wall "sched.warm_tune_wall_ms";
    wall "sched.tune_share.zoo_cold";
    plain "sched.trials.zoo_cold";
    plain "sched.rejected.zoo_cold";
    plain "sched.trials.serve_load";
    plain "sched.trials.gemm";
    plain "sched.rejected.gemm";
    plain "sched.cache_hit_frac.zoo_cold";
    plain "sched.cache_hit_frac.zoo_warm";
    plain "sched.draw_feasible_frac";
    plain "sched.space_feasible_frac";
    wall "sched.instantiate_us";
    (* hidet_gpu *)
    wall "gpu.estimate_us";
    wall "gpu.traffic_us";
    wall "gpu.block_reuse_us";
    wall "gpu.native.compile_ms";
    wall "gpu.stmts_per_s";
    wall "gpu.closure.stmts_per_s";
    wall "gpu.native.stmts_per_s";
    (* hidet_cycle *)
    wall "cycle.estimate_us";
    wall "cycle.static_us";
    wall "cycle.analyze_us";
    wall "cycle.cache_us";
    plain "cycle.traced_site_frac";
    plain "cycle.stream_len";
    wall "cycle.tune_s";
    m ~guard:true Modeled "cycle.best_modeled_us";
    (* hidet_fusion, hidet_runtime and the hidet engine *)
    plain "fusion.fallback_kernels";
    wall "runtime.non_tune_ms";
    wall "runtime.plan_latency_ms";
    plain "runtime.kernels";
    wall "runtime.step_max_share";
    m ~guard:true Modeled "runtime.modeled_latency_us";
    (* hidet_serve *)
    wall "serve.load_s";
    wall "serve.warmup_s";
    wall "serve.simulate_ms";
    wall "serve.execute_s";
    wall "serve.check_s";
    wall "serve.batch_exec_p50_ms";
    wall "serve.batch_exec_tail_ms";
    plain "serve.batch_exec_tail_pct";
    plain "serve.batch_exec_beyond";
    plain "serve.batches";
    plain "serve.mean_batch";
    plain "serve.padding_frac";
    m ~guard:true Virtual "serve.virtual_e2e_p99_ms";
    (* hidet_obs *)
    wall "obs.trace_overhead_frac";
    wall "obs.unattributed_frac.zoo_compile";
    wall "obs.unattributed_frac.tiny_serve";
    wall "obs.unattributed_frac.gemm_cycle_tune";
  ]
  @ List.map
      (fun l -> wall (l ^ ".self_ms"))
      [ "graph"; "sched"; "gpu"; "cycle"; "runtime"; "serve" ]

let find name = List.find_opt (fun t -> t.name = name) all

type scope = End_to_end | Per_layer
type listed = { lname : string; unit_ : string; lower_is_better : bool }

module Json = Hidet_obs.Json

let listed scope =
  let path = "BENCHMARK.json" in
  let fail why = failwith (Printf.sprintf "%s: %s" path why) in
  let json =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> fail e
    | text -> ( match Json.parse text with Ok j -> j | Error e -> fail e)
  in
  let key = match scope with End_to_end -> "end_to_end" | Per_layer -> "per_layer" in
  let str k e =
    match Option.bind (Json.member k e) Json.to_str with
    | Some s -> s
    | None -> fail (Printf.sprintf "%s entry without %S" key k)
  in
  match Option.bind (Json.member key json) Json.to_arr with
  | None -> fail ("no " ^ key ^ " list")
  | Some entries ->
    List.map
      (fun e ->
        { lname = str "name" e; unit_ = str "unit" e; lower_is_better = str "better" e = "lower" })
      entries
