(* Determinism self-check: two traced runs (the ledger) with one seed
   must agree exactly on every guard and count, a third run with another
   seed must serve a different trace, and each run's Chrome trace must
   pass `hidetc trace-check`.

   usage: determinism.exe MAIN_EXE HIDETC_EXE (from the project root) *)

open Perfbench
module Json = Hidet_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("determinism: " ^ s); exit 1) fmt

(* The native executor's generated units go here, not to the system
   temporary directory. *)
let scratch = Filename.concat ".perfbench" "tmp-determinism"

let run_child prog args =
  if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  let env =
    Array.append [| "TMPDIR=" ^ Filename.concat (Sys.getcwd ()) scratch |]
      (Unix.environment ())
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) env Unix.stdin out_w
      Unix.stderr
  in
  Unix.close out_w;
  let text = In_channel.input_all (Unix.in_channel_of_descr out_r) in
  Unix.close out_r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> text
  | _ -> fail "%s %s failed" prog (String.concat " " args)

(* Metrics that must repeat exactly: the guards and every count or ratio
   that does not derive from the wall clock. *)
let exact =
  List.filter_map
    (fun (l : Catalog.listed) ->
      match Catalog.find l.lname with
      | Some m when m.guard || m.clock = Catalog.Unclocked -> Some l.lname
      | _ -> None)
    (Catalog.listed Catalog.Per_layer)

let ledger main hidetc seed =
  let out =
    run_child main
      [ "--workload"; "tiny_serve"; "--seed"; string_of_int seed; "--seconds"; "1"; "--trace"; "1" ]
  in
  let last = List.hd (List.rev (String.split_on_char '\n' (String.trim out))) in
  let json = match Json.parse last with Ok j -> j | Error e -> fail "bad JSON: %s" e in
  ignore (run_child hidetc [ "trace-check"; ".perfbench/trace-tiny_serve.json" ]);
  let metrics = Option.get (Json.member "metrics" json) in
  fun name ->
    match Option.bind (Option.bind (Json.member name metrics) (Json.member "value")) Json.to_num with
    | Some v -> v
    | None -> fail "seed %d: metric %s missing" seed name

let () =
  let main = Sys.argv.(1) and hidetc = Sys.argv.(2) in
  let a = ledger main hidetc 11 and b = ledger main hidetc 11 and c = ledger main hidetc 12 in
  List.iter
    (fun name ->
      if not (Float.equal (a name) (b name)) then
        fail "%s differs between two runs with seed 11: %.17g vs %.17g" name (a name)
          (b name))
    exact;
  let trace r = (r "serve.batches", r "serve.virtual_e2e_p99_ms") in
  if trace a = trace c then fail "seeds 11 and 12 served the same trace";
  ignore (Sys.command ("rm -rf " ^ Filename.quote scratch));
  Printf.printf "determinism: %d guards and counts repeat exactly; seed 12 serves another trace\n"
    (List.length exact)
