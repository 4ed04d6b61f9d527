(* perfbench: wall-clock benchmark of zoo compilation, tiny-model serving
   and cycle-tier tuning. See README.md in this directory.

   usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
   --trace 0 reports the end-to-end metrics of NAME; --trace 1 runs the
   ledger (a traced pass of every workload) and reports the per-layer
   metrics, writing the Chrome trace under .perfbench/. Exits 1 when any
   output check fails, 2 on bad arguments. *)

open Perfbench
open Common

let workloads = [ "zoo_compile"; "tiny_serve"; "gemm_cycle_tune" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (zoo_compile|tiny_serve|gemm_cycle_tune) \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest when List.mem v workloads ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest when int_of_string_opt v <> None ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest
      when match float_of_string_opt v with Some s -> s > 0. | None -> false ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | [] -> ()
    | arg :: _ ->
      Printf.eprintf "bench: bad or incomplete argument %S\n" arg;
      usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some t, Some tr -> (w, s, t, tr)
  | _ -> usage ()

(* Full precision: values are reported as measured. *)
let number v = Printf.sprintf "%.17g" v

(* Exactly the metrics [listed] (BENCHMARK.json's, for the run's scope),
   in its order, with its units. *)
let report listed tally metrics =
  let body =
    List.map
      (fun (l : Catalog.listed) ->
        match List.assoc_opt l.lname metrics with
        | None -> failwith ("bench: metric not measured: " ^ l.lname)
        | Some v when not (Float.is_finite v) ->
          failwith (Printf.sprintf "bench: metric %s is not finite" l.lname)
        | Some v ->
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" l.lname (number v) l.unit_)
      listed
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0) tally.attempted tally.failed (String.concat ", " body)

let end_to_end workload ~seed ~seconds tally =
  let setup, op, note =
    match workload with
    | "zoo_compile" ->
      let r = Zoo_compile.run ~seconds tally in
      let ms = List.map (fun m -> { m with wall_s = m.wall_s *. 1e3 }) r.Zoo_compile.passes in
      ( r.Zoo_compile.setup,
        ms,
        Printf.sprintf "%d warm passes; modeled latency %.3f us" (List.length ms)
          r.Zoo_compile.guard_us )
    | "tiny_serve" ->
      let r = Tiny_serve.run ~seed ~seconds tally in
      let ms =
        List.map (fun m -> { m with wall_s = m.wall_s *. 1e3 }) r.Tiny_serve.per_response
      in
      ( r.Tiny_serve.setup,
        ms,
        Printf.sprintf
          "%d traces, %d responses in all; trace 0: %d batches, virtual e2e p99 %.3f ms"
          (List.length ms) r.Tiny_serve.responses r.Tiny_serve.batches
          r.Tiny_serve.p99_virtual_ms )
    | _ ->
      let r = Gemm_cycle_tune.run ~seed ~seconds tally in
      let rounds = r.Gemm_cycle_tune.rounds in
      ( r.Gemm_cycle_tune.setup,
        List.map Gemm_cycle_tune.per_candidate_ms rounds,
        Printf.sprintf "%d rounds of %d candidates; winners %.3f modeled us"
          (List.length rounds) (List.hd rounds).Gemm_cycle_tune.candidates
          r.Gemm_cycle_tune.guard_us )
  in
  Printf.eprintf
    "perfbench %s seed %d: %s; op median %.4f ms as measured, %.4f rescaled; set-up median %.3f s as measured, %.3f rescaled\n%!"
    workload seed note (as_measured op) (rescaled op) (as_measured setup) (rescaled setup);
  [ ("setup_s", rescaled setup); ("op_ms", rescaled op); ("peak_rss_mb", peak_rss_mb ()) ]

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  let tally = tally () in
  let listed = Catalog.listed (if trace then Catalog.Per_layer else Catalog.End_to_end) in
  let metrics =
    if trace then begin
      let dir = ".perfbench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let trace_path =
        Filename.concat dir (Printf.sprintf "trace-%s.json" workload)
      in
      let metrics = Ledger.run ~seed ~trace_path tally in
      Printf.eprintf "perfbench: Chrome trace written to %s\n%!" trace_path;
      metrics
    end
    else end_to_end workload ~seed ~seconds tally
  in
  report listed tally metrics;
  if tally.failed > 0 then exit 1
