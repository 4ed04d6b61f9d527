(* Workload tiny_serve: [Server.run] on tiny_cnn with execution and
   verification on — the only path where the simulator's executors and
   the serving layer do the work. Set-up loads the model (one cold compile
   per batch bucket) and runs each bucket once; the measured operation is
   serving one of the seed's traces of open-loop Poisson traffic, and the
   reported cost is wall time per verified response. *)

open Common
module S = Hidet_serve
module Plan = Hidet_runtime.Plan
module Tensor = Hidet_tensor.Tensor

let buckets = [ 1; 2; 4; 8 ]

let config =
  {
    S.Server.batcher =
      { S.Batcher.buckets; max_wait = 0.020; queue_cap = 48; batching = true };
    workers = 2;
    max_inflight = 2;
    service_scale = 2000.;
  }

let load () =
  Hidet_sched.Schedule_cache.clear ();
  span "serve" "load" (fun () ->
      S.Registry.load
        ~engine:(module Hidet.Hidet_engine)
        ~device ~buckets (S.Registry.Zoo "tiny_cnn"))

let bucket_inputs (m : S.Registry.model) bucket =
  S.Loadgen.synth_inputs ~seed:0
    ~shapes:(List.map (fun s -> bucket :: List.tl s) m.S.Registry.input_shapes)
    0

(* One execution per bucket, so first-run costs (e.g. a native toolchain
   compile) land in set-up. *)
let warm_bucket (m : S.Registry.model) bucket =
  let v = S.Registry.variant_exn m bucket in
  span "serve" "warmup" (fun () -> ignore (Plan.run1 v.S.Registry.plan (bucket_inputs m bucket)))

let warmup m = List.iter (warm_bucket m) buckets

let setup () =
  let m = load () in
  warmup m;
  m

(* [setup], calibrated: the load, then each bucket's warm-up run. *)
let setup_calibrated () =
  let m = ref None in
  let load_step () = m := Some (load ()) in
  let warm_step bucket () = warm_bucket (Option.get !m) bucket in
  let _, measured = calibrated ~units:50 (load_step :: List.map warm_step buckets) in
  (Option.get !m, measured)

(* Trace [j] of a run with seed [seed]; trace 0 uses the seed itself. *)
let loadgen seed j =
  {
    S.Loadgen.profile = S.Loadgen.Open_loop { rps = 40. };
    duration = 0.5;
    deadline = 0.300;
    burst = None;
    seed = seed + (j * 1_000_003);
  }

(* The independent output check: every response against the reference
   interpreter on the bucket-1 graph — not the same compiler's batch-1
   plan that [Pool.check] uses — at [Pool.check]'s tolerance. *)
let reference_check tally (m : S.Registry.model) (lg : S.Loadgen.t) responses =
  let g = (S.Registry.variant_exn m 1).S.Registry.graph in
  List.iter
    (fun (rid, out) ->
      let inputs =
        S.Loadgen.synth_inputs ~seed:lg.S.Loadgen.seed
          ~shapes:m.S.Registry.input_shapes rid
      in
      let want = Hidet_graph.Reference.run1 g inputs in
      expect tally
        (Tensor.allclose ~rtol:1e-3 ~atol:1e-4 want out)
        (Printf.sprintf "tiny_serve: response %d of trace seed %d" rid
           lg.S.Loadgen.seed))
    responses

(* The server's own verdicts: every completed request has a response,
   and [Pool.check] found no mismatch. *)
let check_report tally (r : S.Server.report) =
  expect tally
    (r.S.Server.mismatches = Some 0
    && List.length r.S.Server.responses = r.S.Server.summary.S.Server.completed)
    (Printf.sprintf "tiny_serve: %d responses for %d completed, mismatches %s"
       (List.length r.S.Server.responses) r.S.Server.summary.S.Server.completed
       (match r.S.Server.mismatches with
       | Some n -> string_of_int n
       | None -> "unchecked"))

type run = {
  setup : measured list;
  per_response : measured list;  (** one per served trace *)
  responses : int;  (** over every trace *)
  p99_virtual_ms : float;  (** trace 0 *)
  batches : int;  (** trace 0 *)
}

(* Three set-ups, then a fixed number of traces per [seconds], trace [j]
   of the seed for the [j]-th repeat, so a run averages over several
   traces' batch mixes; every trace is verified. Only each trace's
   summary is kept, not its responses. *)
let run ~seed ~seconds tally =
  let m, setup = repeat_setup 3 setup_calibrated in
  let rs =
    List.init (repeats ~seconds ~nominal_s:1.9) (fun j ->
        let lg = loadgen seed j in
        (* Every trace starts from a collected heap, so its collection
           work does not depend on the garbage the previous one left. *)
        Gc.full_major ();
        let r, measured = calibrated1 ~units:200 (fun () -> S.Server.run ~exec_workers:1 config m lg) in
        check_report tally r;
        reference_check tally m lg r.S.Server.responses;
        let n = List.length r.S.Server.responses in
        (r.S.Server.summary, n, { measured with wall_s = measured.wall_s /. float n }))
  in
  let s0, _, _ = List.hd rs in
  {
    setup;
    per_response = List.map (fun (_, _, m) -> m) rs;
    responses = List.fold_left (fun acc (_, n, _) -> acc + n) 0 rs;
    p99_virtual_ms = s0.S.Server.e2e_p99 *. 1e3;
    batches = s0.S.Server.batches;
  }
