(* Served end-to-end benchmark over Core.Serve (see README.md).

     served.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
     served.exe --smoke

   One closed-loop client runs a workload's seeded op stream against
   Core.Serve with the program's defaults: the pool from POOL_SIZE (which
   must be unset, so size 1), the journal on and the audit log as the
   audit sink, both with fsync off.  After the workload's warm-up cycles
   it measures whole cycles for S seconds and prints the end-to-end
   metrics.  With --trace 1 it splits S between two passes over the same
   cycles, the second with Obs.Trace on, and prints the per-layer metrics
   instead.  The last stdout line is the result as one JSON object;
   results files go to DIR (default bench/results/served). *)

open Core
module W = Workloads

let now = Harness.now

(* Every [check_every]th query is re-evaluated on the user's materialised
   view, untimed. *)
let check_every = 50

type setup = { generate_s : float; store_init_s : float; create_s : float; login_s : float }

let setup_s s = s.generate_s +. s.store_init_s +. s.create_s +. s.login_s

type pass = {
  setups : setup list;
  cycles : int;  (** measured cycles *)
  measured_ops : int;
  query_ms : float list;  (** measured queries *)
  commit_ms : float list;  (** measured commits *)
  net_s : float;  (** measured phase, minus the untimed checks *)
  attempted : int;
  failed : int;
  answers : Harness.answers;
  answer_count : int;  (** answers returned by measured queries *)
  doc_digest : string;
  journal_bytes : int;  (** appended by measured commits *)
  hit_ratio : float;  (** lazy-view memo hits over measured queries *)
  errors : string list;  (** failed correctness checks *)
}

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let setup_serve (w : W.t) ~dir =
  let doc, generate_s = timed w.generate in
  let d, store_init_s = timed (fun () -> Harness.open_durable dir doc) in
  let serve, create_s = timed (fun () -> Serve.create ~persist:d.Harness.store w.policy doc) in
  let (), login_s = timed (fun () -> Serve.login_many serve w.users) in
  (doc, d, serve, { generate_s; store_init_s; create_s; login_s })

(* Sets up [setups] times, keeping the last; with [setups] > 1 it goes on
   until set-ups have taken 3 s (30 at most), so a cheap set-up is still
   timed over many repetitions.  Then runs the workload's warm-up cycles
   and measures cycles until [seconds] have passed or [max_cycles] have
   run.  With [layers], every measured request runs with Obs.Trace on and
   its spans go to [layers]. *)
let serve_pass ?layers (w : W.t) ~dir ~setups ~seconds ~max_cycles =
  let done_ = ref [] and state = ref None in
  while
    List.length !done_ < setups
    || setups > 1
       && List.fold_left (fun acc s -> acc +. setup_s s) 0. !done_ < 3.
       && List.length !done_ < 30
  do
    Option.iter (fun (_, d, _) -> Harness.close_durable d) !state;
    state := None;
    Gc.compact ();
    let doc, d, serve, s = setup_serve w ~dir in
    done_ := s :: !done_;
    state := Some (doc, d, serve)
  done;
  let doc, d, serve = Option.get !state in
  Fun.protect ~finally:(fun () -> Harness.close_durable d) @@ fun () ->
  let next = w.cycles doc in
  let queries = ref 0 and commits_ok = ref 0 and answer_count = ref 0 in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let query_ms = ref [] and commit_ms = ref [] and checks_s = ref 0. in
  let answers = Harness.answers () in
  let request ~measured f =
    let traced = measured && Option.is_some layers in
    if traced then Obs.Trace.set_enabled true;
    let t0 = now () in
    let r = match f () with x -> Some x | exception _ -> None in
    let ms = 1000. *. (now () -. t0) in
    if traced then begin
      Obs.Trace.set_enabled false;
      Layers.drain (Option.get layers)
    end;
    (r, ms)
  in
  let run ~measured op =
    incr attempted;
    match op with
    | W.Query { user; text } -> (
      match request ~measured (fun () -> Serve.query serve ~user text) with
      | Some ids, ms ->
        if measured then begin
          query_ms := ms :: !query_ms;
          answer_count := !answer_count + List.length ids
        end;
        Harness.add_answers answers ids;
        if !queries mod check_every = 0 then begin
          let c0 = now () in
          let expected = Session.query (Serve.session serve ~user) text in
          if not (List.equal Ordpath.equal expected ids) then
            errors :=
              Printf.sprintf "query %d (%s as %s): Serve.query differs from the view"
                !queries text user
              :: !errors;
          checks_s := !checks_s +. (now () -. c0)
        end;
        incr queries
      | None, _ ->
        incr queries;
        incr failed)
    | W.Commit { user; ops } -> (
      match request ~measured (fun () -> Serve.commit_ops serve ~user ops) with
      | Some (Ok _), ms ->
        if measured then commit_ms := ms :: !commit_ms;
        incr commits_ok
      | (Some (Error _) | None), _ -> incr failed)
  in
  for _ = 1 to w.warmup do
    List.iter (run ~measured:false) (next ())
  done;
  let lazy_views () =
    List.fold_left
      (fun acc user ->
        let lv = Serve.lazy_view serve ~user in
        if List.memq lv acc then acc else lv :: acc)
      [] w.users
  in
  List.iter Lazy_view.reset_stats (lazy_views ());
  let warmup_ops = !attempted and j0 = Harness.journal_bytes d in
  checks_s := 0.;
  let t0 = now () in
  let cycles = ref 0 in
  while !cycles < max_cycles && now () -. t0 < seconds do
    List.iter (run ~measured:true) (next ());
    incr cycles
  done;
  let net_s = now () -. t0 -. !checks_s in
  let seq = Store.seq d.Harness.store in
  if seq <> !commits_ok then
    errors :=
      Printf.sprintf "journal seq %d, but %d commits succeeded" seq !commits_ok :: !errors;
  let hits, misses =
    List.fold_left
      (fun (h, m) lv -> (h + Lazy_view.hits lv, m + Lazy_view.misses lv))
      (0, 0) (lazy_views ())
  in
  {
    setups = !done_;
    cycles = !cycles;
    measured_ops = !attempted - warmup_ops;
    query_ms = !query_ms;
    commit_ms = !commit_ms;
    net_s;
    attempted = !attempted;
    failed = !failed;
    answers;
    answer_count = !answer_count;
    doc_digest = Harness.doc_digest (Serve.source serve);
    journal_bytes = Harness.journal_bytes d - j0;
    hit_ratio = (if hits + misses = 0 then 0. else float hits /. float (hits + misses));
    errors = List.rev !errors;
  }

(* ---------------------------------------------------------------------- *)
(* Metrics                                                                 *)
(* ---------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let m ?(samples = 1) name unit_ value = { name; value; unit_; samples }
let sum = List.fold_left ( +. ) 0.

let end_to_end (p : pass) =
  let nq = List.length p.query_ms and nc = List.length p.commit_ms in
  [ m "throughput_ops_s" "ops/s" (float p.measured_ops /. p.net_s) ~samples:p.measured_ops;
    m "query_p50_ms" "ms" (Stats.percentile 50. p.query_ms) ~samples:nq;
    m "query_p90_ms" "ms" (Stats.percentile 90. p.query_ms) ~samples:nq;
    m "commit_p50_ms" "ms" (Stats.percentile 50. p.commit_ms) ~samples:nc;
    m "setup_s" "s" (Stats.median (List.map setup_s p.setups)) ~samples:(List.length p.setups);
    m "peak_rss_mb" "MiB" (Harness.peak_rss_mb ()) ]

(* [base] is the untraced pass over the same cycles as the traced [p]. *)
let per_layer ~(base : pass) (p : pass) l =
  let nc = float (max 1 (List.length p.commit_ms)) and nq = float (max 1 (List.length p.query_ms)) in
  let ops = nc +. nq in
  let total = Layers.total l and calls name = float (Layers.calls l name) in
  let per_commit s = 1000. *. s /. nc in
  let eval_ms = List.map (( *. ) 1000.) (Layers.durations l "query.eval") in
  let wall_ms (p : pass) = sum p.query_ms +. sum p.commit_ms in
  let s = List.hd p.setups in
  [ m "txn.stage_ms" "ms" (per_commit (total "txn.commit" -. total "txn.validate"));
    m "txn.validate_ms" "ms" (per_commit (total "txn.validate"));
    m "store.append_ms" "ms" (per_commit (total "store.append"));
    m "store.bytes_per_commit" "B" (float p.journal_bytes /. nc);
    m "commit.publish_ms" "ms"
      (per_commit (total "serve.commit" -. total "txn.commit" -. total "store.append"));
    m "perm_view.update_ms" "ms"
      (per_commit
         (total "perm.update" +. total "perm.update_policy" +. total "view.patch"
        +. total "perm.compute" +. total "view.derive"));
    m "lazy_view.rebase_ms" "ms"
      (per_commit (total "lazy_view.rebase" +. Layers.self l "session.rebase"));
    m "flat.freezes" "count" (calls "flat.freeze" /. nc);
    m "classes_rebased" "count" (calls "session.rebase" /. nc);
    m "query.eval_ms_p50" "ms" (Stats.percentile 50. eval_ms);
    m "query.eval_ms_p99" "ms" (Stats.percentile 99. eval_ms);
    m "xpath.parses" "count" (calls "xpath.parse" /. nq);
    m "rewrite.fallback_share" "ratio" (1. -. (calls "rewrite.select" /. nq));
    m "rewrite.answers_per_query" "count" (float p.answer_count /. nq);
    m "lazy_view.hit_ratio" "ratio" p.hit_ratio;
    m "audit.append_ms" "ms" (1000. *. total "audit.append" /. ops);
    m "audit.records_per_op" "count" (calls "audit.append" /. ops);
    m "setup.generate_s" "s" s.generate_s;
    m "setup.store_init_s" "s" s.store_init_s;
    m "setup.create_s" "s" s.create_s;
    m "setup.login_s" "s" s.login_s;
    m "trace.coverage" "ratio" (1000. *. Layers.covered l /. wall_ms p);
    m "trace.overhead_pct" "%" (100. *. ((wall_ms p /. wall_ms base) -. 1.)) ]

(* ---------------------------------------------------------------------- *)
(* Output                                                                  *)
(* ---------------------------------------------------------------------- *)

(* The commit the sources were checked out at, read from .git when there
   is one (a loose ref, else packed-refs). *)
let git_commit () =
  let lines path = try Results.lines path with Sys_error _ -> [] in
  match lines ".git/HEAD" with
  | head :: _ when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.trim (String.sub head 5 (String.length head - 5)) in
    match lines (Filename.concat ".git" ref_) with
    | commit :: _ when commit <> "" -> commit
    | _ -> (
      match List.find_opt (String.ends_with ~suffix:(" " ^ ref_)) (lines ".git/packed-refs") with
      | Some l -> List.hd (String.split_on_char ' ' l)
      | None -> "unknown"))
  | commit :: _ when commit <> "" -> commit
  | _ -> "unknown"

let header ~workload ~seed ~seconds ~trace =
  Printf.sprintf
    "{\"nproc\":%d,\"ocaml\":%S,\"commit\":%S,\"workload\":%S,\"seed\":%d,\"seconds\":%s,\"trace\":%d}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_commit ()) workload seed (Results.number seconds) trace

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* ---------------------------------------------------------------------- *)
(* Runs                                                                    *)
(* ---------------------------------------------------------------------- *)

(* The traced pass must run the untraced pass's requests and get its
   answers, or its overhead is not measured over the same work. *)
let same_work (a : pass) (b : pass) =
  List.filter_map Fun.id
    [ (if Harness.answers_hex a.answers <> Harness.answers_hex b.answers then
         Some
           (Printf.sprintf "answers digest: untraced %s, traced %s"
              (Harness.answers_hex a.answers) (Harness.answers_hex b.answers))
       else None);
      (if a.doc_digest <> b.doc_digest then
         Some
           (Printf.sprintf "final document digest: untraced %s, traced %s" a.doc_digest
              b.doc_digest)
       else None) ]

(* The untraced pass, then the traced pass over the same cycles. *)
let traced_passes (w : W.t) ~dir ~seconds ~max_cycles =
  let base = serve_pass w ~dir ~setups:1 ~seconds ~max_cycles in
  let l = Layers.create () in
  let p =
    serve_pass ~layers:l w ~dir ~setups:1 ~seconds:Float.infinity ~max_cycles:base.cycles
  in
  (base, p, l)

let run ~workload ~seed ~seconds ~trace ~out =
  let w = W.find ~smoke:false ~seed workload in
  Harness.mkdir_p out;
  let dir = Filename.concat out (Printf.sprintf "work-%s-%d" workload (Unix.getpid ())) in
  let hdr = header ~workload ~seed ~seconds ~trace:(Bool.to_int trace) in
  let metrics, p, (attempted, failed), errors =
    if not trace then begin
      let p = serve_pass w ~dir ~setups:3 ~seconds ~max_cycles:max_int in
      (end_to_end p, p, (p.attempted, p.failed), p.errors)
    end
    else begin
      let base, p, l = traced_passes w ~dir ~seconds:(seconds /. 2.) ~max_cycles:max_int in
      let wall = (sum p.query_ms +. sum p.commit_ms) /. 1000. in
      let table = Layers.table l ~wall in
      prerr_string table;
      write_file
        (Filename.concat out (workload ^ ".layers.txt"))
        (Printf.sprintf "# %s\n# traced requests: %d, wall %.3f s\n%s" hdr p.measured_ops wall
           table);
      Layers.write_chrome l (Filename.concat out (workload ^ ".trace.json"));
      ( per_layer ~base p l,
        p,
        (base.attempted + p.attempted, base.failed + p.failed),
        base.errors @ p.errors @ same_work base p )
    end
  in
  Printf.eprintf "%s seed %d: %d ops measured (%d queries, %d commits) in %.2f s, %d failed\n"
    workload seed p.measured_ops (List.length p.query_ms) (List.length p.commit_ms) p.net_s
    p.failed;
  List.iter (fun e -> Printf.eprintf "CHECK FAILED: %s\n" e) errors;
  List.iter
    (fun x -> Printf.eprintf "  %-26s %14.4f %-6s (n=%d)\n" x.name x.value x.unit_ x.samples)
    metrics;
  let correct = errors = [] in
  (* One object per line, so compare.exe can read the file line by line. *)
  write_file
    (Filename.concat out (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (Bool.to_int trace)))
    (String.concat "\n"
       (hdr
        :: Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d}" correct attempted
             failed
        :: List.map
             (fun x ->
               Printf.sprintf "{\"metric\":%S,\"value\":%s,\"unit\":%S,\"samples\":%d}" x.name
                 (Results.number x.value) x.unit_ x.samples)
             metrics)
    ^ "\n");
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun x ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.name (Results.number x.value) x.unit_)
          metrics));
  if not correct then exit 1

(* Tier-1 smoke: every workload on a small document for a few cycles, in
   both passes; the traced pass must do the same work and nothing may
   fail. *)
let smoke () =
  let t0 = now () in
  let ok = ref true in
  List.iter
    (fun workload ->
      let w = W.find ~smoke:true ~seed:1 workload in
      let dir = Printf.sprintf "served-smoke-%d" (Unix.getpid ()) in
      let base, p, l = traced_passes w ~dir ~seconds:Float.infinity ~max_cycles:3 in
      ignore (per_layer ~base p l);
      let errors = base.errors @ p.errors @ same_work base p in
      let failed = base.failed + p.failed in
      Printf.printf "%-11s %3d ops, %d failed, answers %s, document %s: %s\n" workload
        p.attempted failed (Harness.answers_hex p.answers) p.doc_digest
        (if errors = [] && failed = 0 then "ok" else "FAIL");
      List.iter (Printf.printf "  %s\n") errors;
      if errors <> [] || failed > 0 then ok := false)
    W.names;
  let elapsed = now () -. t0 in
  Printf.printf "smoke: %.2f s\n" elapsed;
  if elapsed >= 10. then begin
    print_endline "smoke: over the 10 s budget";
    ok := false
  end;
  if not !ok then exit 1

let () =
  if Sys.getenv_opt "POOL_SIZE" <> None then begin
    prerr_endline "served: unset POOL_SIZE; the benchmark runs Serve's default pool";
    exit 2
  end;
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let out = ref (Filename.concat "bench" (Filename.concat "results" "served")) in
  let smoke_mode = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " W.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--out", Arg.Set_string out, "DIR results directory");
      ("--smoke", Arg.Set smoke_mode, " every workload, small, both passes") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "served.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR] | --smoke";
  if !smoke_mode then smoke ()
  else if not (List.mem !workload W.names) then begin
    prerr_endline ("served: --workload must be one of " ^ String.concat ", " W.names);
    exit 2
  end
  else if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "served: --trace must be 0 or 1";
    exit 2
  end
  else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
