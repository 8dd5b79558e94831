(* The transactional write pipeline:

   (a) equivalence — a tolerant [Txn.commit] of a random batch produces
       exactly the state and reports of sequential [Secure_update.apply];
   (b) atomicity — an aborting transaction (denied op, failing op, or
       end-to-end validation failure, injected at a random position) is
       observationally absent: source, views, audit ring and every metric
       except [txn_aborts_total] are bit-for-bit untouched (≥200 seeded
       cases);
   (c) recovery — for {e every} byte-prefix of the journal,
       [Txn.recover] reproduces the exact document at the last commit
       boundary inside the prefix, and re-resolved permissions agree;
   (d) concurrency — [Serve] runs one writer at a time: commits from
       several domains all publish, in journal order; logins racing
       commits all stay; and reads on other domains answer on one of the
       published epochs. *)

open Xmldoc
module D = Document
module Op = Xupdate.Op
module Prng = Workload.Prng

let base_seed = 20250806

(* ------------------------------------------------------------------ *)
(* Generators (same pools as test_differential)                        *)
(* ------------------------------------------------------------------ *)

let target_paths =
  [
    "/patients"; "/patients/*"; "//service"; "//diagnosis"; "//visit";
    "//note"; "//date"; "//diagnosis/text()"; "//service/text()";
    "/patients/*[1]"; "/patients/*[last()]"; "//visit[@n = 1]";
  ]

let new_labels = [ "department"; "cured"; "zeta"; "checked" ]

let fragments =
  [
    Tree.element "extra" [ Tree.text "note" ];
    Tree.text "addendum";
    Tree.element "audit"
      [ Tree.attr "by" "harness"; Tree.element "stamp" [ Tree.text "t0" ] ];
  ]

let random_op rng =
  let rng, path = Prng.pick rng target_paths in
  let rng, kind = Prng.int rng 6 in
  match kind with
  | 0 ->
    let rng, l = Prng.pick rng new_labels in
    (rng, Op.rename path l)
  | 1 ->
    let rng, l = Prng.pick rng new_labels in
    (rng, Op.update path l)
  | 2 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.append path tree)
  | 3 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.insert_before path tree)
  | 4 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.insert_after path tree)
  | _ -> (rng, Op.remove path)

let random_batch rng n =
  let rec go rng n acc =
    if n = 0 then (rng, List.rev acc)
    else
      let rng, op = random_op rng in
      go rng (n - 1) (op :: acc)
  in
  go rng n []

let random_case seed =
  let rng = Prng.create seed in
  let rng, patients = Prng.int rng 5 in
  let rng, visits = Prng.int rng 3 in
  let doc =
    Workload.Gen_doc.generate
      {
        Workload.Gen_doc.patients = patients + 2;
        visits_per_patient = visits;
        diagnosed_fraction = 0.7;
        seed;
      }
  in
  let rng, rules = Prng.int rng 8 in
  let policy =
    Workload.Gen_policy.random
      { Workload.Gen_policy.rules = rules + 4; deny_fraction = 0.3; seed }
  in
  let rng, n = Prng.int rng 5 in
  let rng, ops = random_batch rng (n + 1) in
  (rng, doc, policy, ops)

let pp_ops ops =
  String.concat "; " (List.map (Format.asprintf "%a" Op.pp) ops)

let repro ~seed ~doc ~policy ~ops what =
  Printf.sprintf
    "%s\n--- repro (seed %d) ---\nfacts: %s\npolicy:\n%s\nops: %s" what seed
    (Xml_print.facts doc)
    (Format.asprintf "%a" Core.Policy.pp policy)
    (pp_ops ops)

(* ------------------------------------------------------------------ *)
(* (a) Txn.commit ≡ sequential Secure_update.apply                     *)
(* ------------------------------------------------------------------ *)

let render_report = Format.asprintf "%a" Core.Secure_update.pp_report

let test_equivalence () =
  let cases = 150 in
  for case = 0 to cases - 1 do
    let seed = base_seed + case in
    let _, doc, policy, ops = random_case seed in
    let fail what = Alcotest.fail (repro ~seed ~doc ~policy ~ops what) in
    let s_seq, reports_seq =
      Core.Secure_update.apply_all (Core.Session.login policy doc ~user:"u") ops
    in
    match
      Core.Txn.commit ~on_denial:`Tolerate
        (Core.Session.login policy doc ~user:"u")
        ops
    with
    | Error err ->
      fail
        (Printf.sprintf "tolerant commit aborted: %s"
           (Core.Txn.error_to_string err))
    | Ok { Core.Txn.session = s_txn; reports = reports_txn; delta; _ } ->
      if not (D.equal (Core.Session.source s_txn) (Core.Session.source s_seq))
      then fail "transactional source <> sequential source";
      if not (D.equal (Core.Session.view s_txn) (Core.Session.view s_seq)) then
        fail "transactional view <> sequential view";
      List.iteri
        (fun i (a, b) ->
          let a = render_report a and b = render_report b in
          if a <> b then
            fail
              (Printf.sprintf "report %d differs\ntxn: %s\nseq: %s" i a b))
        (List.combine reports_txn reports_seq);
      (* The merged delta is the union of the per-op deltas. *)
      let manual =
        List.fold_left
          (fun acc (r : Core.Secure_update.report) ->
            Core.Delta.union acc r.delta)
          Core.Delta.empty reports_txn
      in
      Alcotest.(check string)
        (Printf.sprintf "merged delta (seed %d)" seed)
        (Format.asprintf "%a" Core.Delta.pp manual)
        (Format.asprintf "%a" Core.Delta.pp delta)
  done

(* ------------------------------------------------------------------ *)
(* (b) atomicity: aborts are observationally absent                    *)
(* ------------------------------------------------------------------ *)

(* Fully-downward policy where update/insert/delete are granted
   everywhere but //e's text is RESTRICTED (position without read), so
   [rename //e/node()] is deterministically denied. *)
let denial_doc () =
  D.of_tree
    (Tree.element "root"
       [
         Tree.element "a" [ Tree.element "x" [ Tree.text "one" ] ];
         Tree.element "d" [ Tree.text "three" ];
         Tree.element "e" [ Tree.text "secret" ];
       ])

let denial_policy () =
  let subjects = Core.Subject.of_list [ (Core.Subject.User, "u", []) ] in
  Core.Policy.v subjects
    [
      Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:"u"
        ~priority:1;
      Core.Rule.deny Core.Privilege.Read ~path:"//e/node()" ~subject:"u"
        ~priority:2;
      Core.Rule.accept Core.Privilege.Position ~path:"//e/node()" ~subject:"u"
        ~priority:3;
      Core.Rule.accept Core.Privilege.Update ~path:"//node()" ~subject:"u"
        ~priority:4;
      Core.Rule.accept Core.Privilege.Delete ~path:"//node()" ~subject:"u"
        ~priority:5;
      Core.Rule.accept Core.Privilege.Insert ~path:"//node()" ~subject:"u"
        ~priority:6;
    ]

let denial_ops rng =
  let pool =
    [
      Op.update "//d" "cured"; Op.rename "//a" "b"; Op.remove "//x";
      Op.append "//d" (Tree.element "extra" [ Tree.text "n" ]);
      Op.insert_after "//a" (Tree.element "tail" []);
    ]
  in
  let rec go rng n acc =
    if n = 0 then (rng, List.rev acc)
    else
      let rng, op = Prng.pick rng pool in
      go rng (n - 1) (op :: acc)
  in
  let rng, n = Prng.int rng 4 in
  go rng n []

let histogram_counts () =
  List.map
    (fun name ->
      (name, Obs.Metrics.count (Obs.Metrics.histogram Obs.Metrics.default name)))
    (Obs.Metrics.histogram_names Obs.Metrics.default)

(* One abort case: run [commit] (expected to return [Error]) and assert
   the world is unchanged except for one [txn_aborts_total] tick and its
   labelled mirror, the [txn_outcomes_total{outcome="abort"}] cell. *)
let assert_clean_abort ~name ~session ?validate ops expect =
  let doc0 = Core.Session.source session in
  let view0 = Core.Session.view session in
  let counters0 = Obs.Metrics.counters Obs.Metrics.default in
  let gauges0 = Obs.Metrics.gauges Obs.Metrics.default in
  let families0 = Obs.Metrics.families Obs.Metrics.default in
  let hists0 = histogram_counts () in
  let audit0 = Obs.Audit.to_json Obs.Audit.default in
  (match Core.Txn.commit ?validate session ops with
   | Ok _ -> Alcotest.failf "%s: expected an abort" name
   | Error err ->
     (match (expect, err) with
      | `Denied, Core.Txn.Denied _
      | `Failed, Core.Txn.Failed _
      | `Invalid, Core.Txn.Invalid _ -> ()
      | _ ->
        Alcotest.failf "%s: wrong abort class: %s" name
          (Core.Txn.error_to_string err)));
  if not (D.equal (Core.Session.source session) doc0) then
    Alcotest.failf "%s: source changed across an abort" name;
  if not (D.equal (Core.Session.view session) view0) then
    Alcotest.failf "%s: view changed across an abort" name;
  Alcotest.(check string)
    (Printf.sprintf "%s: audit ring untouched" name)
    audit0
    (Obs.Audit.to_json Obs.Audit.default);
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "%s: no histogram observed" name)
    hists0 (histogram_counts ());
  let counters1 = Obs.Metrics.counters Obs.Metrics.default in
  List.iter
    (fun (n, v1) ->
      let v0 = try List.assoc n counters0 with Not_found -> 0 in
      let expect = if n = "txn_aborts_total" then v0 + 1 else v0 in
      if v1 <> expect then
        Alcotest.failf "%s: counter %s moved across an abort (%d -> %d)" name n
          v0 v1)
    counters1;
  (* Settable gauges must not move; callback gauges (seconds-since-
     snapshot and friends) sample external state, so allow clock drift
     between the two reads. *)
  Alcotest.(check (list (pair string (float 0.25))))
    (Printf.sprintf "%s: gauges untouched" name)
    gauges0
    (Obs.Metrics.gauges Obs.Metrics.default);
  List.iter
    (fun (n, pairs, v1) ->
      let v0 =
        match
          List.find_opt (fun (n0, p0, _) -> n0 = n && p0 = pairs) families0
        with
        | Some (_, _, v) -> v
        | None -> 0
      in
      let expect =
        if n = "txn_outcomes_total" && pairs = [ ("outcome", "abort") ] then
          v0 + 1
        else v0
      in
      if v1 <> expect then
        Alcotest.failf "%s: family cell %s%s moved across an abort (%d -> %d)"
          name n
          (String.concat ","
             (List.map (fun (k, v) -> Printf.sprintf "{%s=%s}" k v) pairs))
          v0 v1)
    (Obs.Metrics.families Obs.Metrics.default)

let test_atomicity () =
  Obs.Audit.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Audit.set_enabled false) @@ fun () ->
  let cases = 210 in
  for case = 0 to cases - 1 do
    let seed = base_seed + 10_000 + case in
    let rng = Prng.create seed in
    let rng, scenario = Prng.int rng 3 in
    match scenario with
    | 0 ->
      (* A deterministically denied op at a random position in a batch of
         permitted ops. *)
      let rng, prefix = denial_ops rng in
      let _, suffix = denial_ops rng in
      let ops = prefix @ [ Op.rename "//e/node()" "leak" ] @ suffix in
      let session =
        Core.Session.login (denial_policy ()) (denial_doc ()) ~user:"u"
      in
      assert_clean_abort ~name:(Printf.sprintf "denied (seed %d)" seed)
        ~session ops `Denied
    | 1 ->
      (* An op that raises at evaluation time (unbound variable in a
         predicate) at a random position in a random batch.  Denials may
         legitimately abort first. *)
      let _, doc, policy, ops = random_case seed in
      let rng, pos = Prng.int (Prng.create (seed + 1)) (List.length ops + 1) in
      ignore rng;
      let ops =
        List.filteri (fun i _ -> i < pos) ops
        @ [ Op.remove "//service[$no_such_variable = 1]" ]
        @ List.filteri (fun i _ -> i >= pos) ops
      in
      let session = Core.Session.login policy doc ~user:"u" in
      let name = Printf.sprintf "failing (seed %d)" seed in
      (* A denial earlier in the batch aborts before the bad op; and a
         view with no matching candidates never evaluates the predicate
         at all — then force an abort through validation instead, so
         every case exercises rollback. *)
      (match Core.Txn.commit session ops with
       | Error (Core.Txn.Denied _) ->
         assert_clean_abort ~name ~session ops `Denied
       | Error (Core.Txn.Failed _) ->
         assert_clean_abort ~name ~session ops `Failed
       | _ ->
         assert_clean_abort ~name ~session
           ~validate:(fun _ -> [ "forced violation" ])
           ops `Invalid)
    | _ ->
      (* End-to-end validation rejects the staged document. *)
      let _, doc, policy, ops = random_case seed in
      let session = Core.Session.login policy doc ~user:"u" in
      let expect =
        match Core.Txn.commit session ops with
        | Error (Core.Txn.Denied _) -> `Denied
        | _ -> `Invalid
      in
      assert_clean_abort ~name:(Printf.sprintf "invalid (seed %d)" seed)
        ~session
        ~validate:(fun _ -> [ "forced violation" ])
        ops expect
  done

(* The scenario-1/2 pre-probes above run commits of their own; make sure
   the counters they move are the transaction counters we think they are
   (the pre-probe commit is itself abort-clean, so the probe + the real
   run tick txn_aborts_total twice — assert_clean_abort snapshots after
   the probe, so it sees exactly one). *)

let test_commit_metrics () =
  let session =
    Core.Session.login (denial_policy ()) (denial_doc ()) ~user:"u"
  in
  let commits0 =
    List.assoc "txn_commits_total" (Obs.Metrics.counters Obs.Metrics.default)
  in
  (match Core.Txn.commit session [ Op.update "//d" "cured" ] with
   | Ok c ->
     Alcotest.(check int) "one report" 1 (List.length c.Core.Txn.reports)
   | Error e -> Alcotest.failf "commit failed: %s" (Core.Txn.error_to_string e));
  Alcotest.(check int) "txn_commits_total ticked" (commits0 + 1)
    (List.assoc "txn_commits_total" (Obs.Metrics.counters Obs.Metrics.default))

(* ------------------------------------------------------------------ *)
(* (c) crash recovery at every journal byte-prefix                     *)
(* ------------------------------------------------------------------ *)

let mk_temp_dir () =
  let path = Filename.temp_file "xmlsecu-txn" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let spit path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

module P = Core.Paper_example

(* A deterministic multi-writer script where every batch commits. *)
let script =
  [
    (P.laporte, [ Op.update "/patients/franck/diagnosis" "pharyngitis" ]);
    (P.beaufort, [ Op.rename "/patients/robert" "r2" ]);
    ( P.laporte,
      [
        Op.update "/patients/franck/diagnosis" "cured";
        Op.append "/patients/franck/diagnosis" (Tree.text "confirmed");
      ] );
    ( P.beaufort,
      [
        Op.rename "/patients/r2" "robert";
        Op.append "/patients"
          (Tree.element "zoe" [ Tree.element "service" [ Tree.text "surgery" ] ]);
      ] );
    (P.laporte, [ Op.remove "/patients/franck/diagnosis/node()" ]);
  ]

let build_store dir =
  let store = Store.open_dir dir in
  let doc0 = P.document () in
  Store.init store doc0;
  let journal = Filename.concat dir "journal.log" in
  let serve = Core.Serve.create ~persist:store P.policy doc0 in
  (* boundaries: (journal size at the commit point, seq, expected doc),
     oldest first, starting with the empty journal. *)
  let boundaries = ref [ (file_size journal, 0, doc0) ] in
  List.iteri
    (fun i (user, ops) ->
      match Core.Serve.commit serve ~user ops with
      | Ok _ ->
        boundaries :=
          (file_size journal, i + 1, Core.Serve.source serve) :: !boundaries
      | Error e ->
        Alcotest.failf "script step %d aborted: %s" i
          (Core.Txn.error_to_string e))
    script;
  Store.close store;
  (List.rev !boundaries, slurp journal)

(* Copy the store with the journal truncated to [p] bytes. *)
let truncated_copy src bytes p =
  let dir = mk_temp_dir () in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".snap" then
        spit (Filename.concat dir f) (slurp (Filename.concat src f)))
    (Sys.readdir src);
  spit (Filename.concat dir "journal.log") (String.sub bytes 0 p);
  dir

let check_recovered ~p ~expected_seq ~expected_doc ~torn r =
  if r.Core.Txn.seq <> expected_seq then
    Alcotest.failf "prefix %d: recovered seq %d, expected %d" p r.Core.Txn.seq
      expected_seq;
  if r.Core.Txn.torn_bytes <> torn then
    Alcotest.failf "prefix %d: torn %d, expected %d" p r.Core.Txn.torn_bytes
      torn;
  if not (D.equal r.Core.Txn.doc expected_doc) then
    Alcotest.failf "prefix %d: recovered state diverges\ngot:  %s\nwant: %s" p
      (Xml_print.facts r.Core.Txn.doc)
      (Xml_print.facts expected_doc)

(* Permissions re-resolved on the recovered document agree with the
   pre-crash ones: every user's freshly derived view is equal. *)
let check_perm_agreement recovered expected =
  List.iter
    (fun user ->
      let vr =
        Core.Session.view (Core.Session.login P.policy recovered ~user)
      in
      let ve = Core.Session.view (Core.Session.login P.policy expected ~user) in
      if not (D.equal vr ve) then
        Alcotest.failf "recovered view for %s diverges" user)
    [ P.laporte; P.beaufort; P.richard; P.robert ]

let test_recovery_every_prefix () =
  let src = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf src) @@ fun () ->
  let boundaries, bytes = build_store src in
  let base = match boundaries with (b, _, _) :: _ -> b | [] -> 0 in
  Alcotest.(check int) "script fully journalled"
    (List.length script + 1) (List.length boundaries);
  for p = base to String.length bytes do
    (* The last boundary at or below p is the recoverable state. *)
    let off, seq, doc =
      List.fold_left
        (fun acc (off, seq, doc) -> if off <= p then (off, seq, doc) else acc)
        (List.hd boundaries) boundaries
    in
    let dir = truncated_copy src bytes p in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let r = Core.Txn.recover P.policy dir in
    check_recovered ~p ~expected_seq:seq ~expected_doc:doc ~torn:(p - off) r;
    (* Permission agreement on every commit boundary (cheap enough since
       boundaries are few; intermediate prefixes reuse the same doc). *)
    if p = off then check_perm_agreement r.Core.Txn.doc doc
  done;
  (* Full journal recovers the final state with nothing torn. *)
  let r = Core.Txn.recover P.policy src in
  let _, seq, final = List.nth boundaries (List.length boundaries - 1) in
  check_recovered ~p:(String.length bytes) ~expected_seq:seq
    ~expected_doc:final ~torn:0 r;
  check_perm_agreement r.Core.Txn.doc final

let test_recovery_corrupt_middle () =
  let src = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf src) @@ fun () ->
  let boundaries, bytes = build_store src in
  (* Flip a byte inside the third record: recovery stops at seq 2 and
     discards everything after, checksum first. *)
  let off2, seq2, doc2 = List.nth boundaries 2 in
  let corrupt = Bytes.of_string bytes in
  Bytes.set corrupt (off2 + 20)
    (Char.chr (Char.code (Bytes.get corrupt (off2 + 20)) lxor 0x01));
  let dir = truncated_copy src (Bytes.to_string corrupt) (Bytes.length corrupt) in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let r = Core.Txn.recover P.policy dir in
  Alcotest.(check int) "stops before the corrupt record" seq2 r.Core.Txn.seq;
  Alcotest.(check int) "rest is torn"
    (String.length bytes - off2)
    r.Core.Txn.torn_bytes;
  Alcotest.(check bool) "state at the last good boundary" true
    (D.equal r.Core.Txn.doc doc2)

let test_recovery_with_snapshots () =
  (* Auto-snapshot every 2 commits: recovery starts from the newest
     snapshot and replays only the tail; the result is unchanged. *)
  let src = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf src) @@ fun () ->
  let store = Store.open_dir ~snapshot_every:2 src in
  let doc0 = P.document () in
  Store.init store doc0;
  let serve = Core.Serve.create ~persist:store P.policy doc0 in
  List.iter
    (fun (user, ops) ->
      match Core.Serve.commit serve ~user ops with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Core.Txn.error_to_string e))
    script;
  let final = Core.Serve.source serve in
  Store.close store;
  let r = Core.Txn.recover P.policy src in
  Alcotest.(check int) "recovered seq" (List.length script) r.Core.Txn.seq;
  Alcotest.(check int) "replays only past the snapshot" 1 r.Core.Txn.replayed;
  Alcotest.(check int) "snapshot at seq 4" 4 r.Core.Txn.snapshot_seq;
  Alcotest.(check bool) "state equal" true (D.equal r.Core.Txn.doc final)

(* Recovery under a policy whose rules are NOT all downward: predicate
   and $USER paths force Perm's per-rule fallback evaluator both while
   the script commits and when permissions are re-resolved on the
   recovered document.  The recovered state and every user's re-derived
   view must agree with the pre-crash ones. *)
let nd_subjects =
  Core.Subject.of_list
    [
      (Core.Subject.Role, "staff", []);
      (Core.Subject.Role, "patient", []);
      (Core.Subject.User, "w", [ "staff" ]);
      (Core.Subject.User, "franck", [ "patient" ]);
      (Core.Subject.User, "robert", [ "patient" ]);
    ]

let nd_policy =
  Core.Policy.v nd_subjects
    [
      Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:"staff"
        ~priority:1;
      Core.Rule.accept Core.Privilege.Update ~path:"//node()" ~subject:"staff"
        ~priority:2;
      Core.Rule.accept Core.Privilege.Insert ~path:"//node()" ~subject:"staff"
        ~priority:3;
      Core.Rule.accept Core.Privilege.Delete ~path:"//node()" ~subject:"staff"
        ~priority:4;
      (* Non-downward: a predicate span and the $USER self-record rule. *)
      Core.Rule.accept Core.Privilege.Read ~path:"/patients"
        ~subject:"patient" ~priority:5;
      Core.Rule.accept Core.Privilege.Read
        ~path:"/patients/*[name() = $USER]/descendant-or-self::node()"
        ~subject:"patient" ~priority:6;
      Core.Rule.deny Core.Privilege.Read ~path:"//*[diagnosis/text()]/note"
        ~subject:"patient" ~priority:7;
    ]

let nd_script =
  [
    ("w", [ Op.update "/patients/franck/diagnosis" "pharyngitis" ]);
    ( "w",
      [
        Op.append "/patients/franck"
          (Tree.element "note" [ Tree.text "follow-up" ]);
      ] );
    ("w", [ Op.update "/patients/franck/diagnosis" "cured" ]);
  ]

let nd_perm_agreement recovered expected =
  List.iter
    (fun user ->
      let vr =
        Core.Session.view (Core.Session.login nd_policy recovered ~user)
      in
      let ve =
        Core.Session.view (Core.Session.login nd_policy expected ~user)
      in
      if not (D.equal vr ve) then
        Alcotest.failf "recovered fallback view for %s diverges" user)
    [ "w"; "franck"; "robert" ]

let test_recovery_non_downward () =
  let src = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf src) @@ fun () ->
  let store = Store.open_dir src in
  let doc0 = P.document () in
  Store.init store doc0;
  let journal = Filename.concat src "journal.log" in
  let serve = Core.Serve.create ~persist:store nd_policy doc0 in
  let boundaries = ref [ (file_size journal, 0, doc0) ] in
  List.iteri
    (fun i (user, ops) ->
      match Core.Serve.commit serve ~user ops with
      | Ok _ ->
        boundaries :=
          (file_size journal, i + 1, Core.Serve.source serve) :: !boundaries
      | Error e ->
        Alcotest.failf "nd script step %d aborted: %s" i
          (Core.Txn.error_to_string e))
    nd_script;
  let final = Core.Serve.source serve in
  Store.close store;
  let boundaries = List.rev !boundaries in
  let bytes = slurp journal in
  (* Full journal: final state, nothing torn, fallback views agree. *)
  let r = Core.Txn.recover nd_policy src in
  check_recovered ~p:(String.length bytes)
    ~expected_seq:(List.length nd_script) ~expected_doc:final ~torn:0 r;
  nd_perm_agreement r.Core.Txn.doc final;
  (* Truncated to an interior commit boundary: the $USER and predicate
     rules must re-resolve identically on the partial replay too. *)
  let off1, seq1, doc1 = List.nth boundaries 1 in
  let dir = truncated_copy src bytes off1 in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let r1 = Core.Txn.recover nd_policy dir in
  check_recovered ~p:off1 ~expected_seq:seq1 ~expected_doc:doc1 ~torn:0 r1;
  nd_perm_agreement r1.Core.Txn.doc doc1

(* ------------------------------------------------------------------ *)
(* (d) concurrency: one writer at a time                               *)
(* ------------------------------------------------------------------ *)

(* Writers read, insert and update everywhere (one class); every other
   user is staff with one rule of their own, so each is a class of its
   own and every commit rebases it.  All rules are downward. *)
let conc_policy ~writers ~others =
  let user roles u = (Core.Subject.User, u, roles) in
  let subjects =
    Core.Subject.of_list
      ([ (Core.Subject.Role, "staff", []);
         (Core.Subject.Role, "writer", [ "staff" ]) ]
      @ List.map (user [ "writer" ]) writers
      @ List.map (user [ "staff" ]) others)
  in
  let rule d p path subject priority = Core.Rule.v d p ~path ~subject ~priority in
  Core.Policy.v subjects
    ([ rule Core.Rule.Accept Core.Privilege.Read "//node()" "staff" 1;
       rule Core.Rule.Accept Core.Privilege.Insert "//node()" "writer" 2;
       rule Core.Rule.Accept Core.Privilege.Update "//node()" "writer" 3 ]
    @ List.mapi
        (fun i u ->
          rule Core.Rule.Deny Core.Privilege.Read (Printf.sprintf "//x%d" i) u
            (10 + i))
        others)

(* One element per writer, for its appends. *)
let conc_doc writers =
  Xml_parse.of_string
    (Printf.sprintf "<patients>%s</patients>"
       (String.concat "" (List.map (Printf.sprintf "<%s/>") writers)))

let item text = Tree.element "item" [ Tree.text text ]

let commit_ok serve ~user ops =
  match Core.Serve.commit_ops serve ~user ops with
  | Ok _ -> ()
  | Error e -> failwith (user ^ ": " ^ Core.Txn.error_to_string e)

(* Issues a deny-read rule, or retracts the one issued last. *)
let toggle serve toggled ~path ~subject =
  match !toggled with
  | Some priority ->
    toggled := None;
    Core.Op.Policy (Core.Op.Retract_rule { priority })
  | None ->
    let priority = Core.Serve.fresh_priority serve in
    toggled := Some priority;
    Core.Op.Policy
      (Core.Op.Add_rule
         (Core.Rule.v Core.Rule.Deny Core.Privilege.Read ~path ~subject
            ~priority))

(* Spawns one domain per task, all released at once. *)
let all_at_once tasks =
  let ready = Atomic.make 0 and n = List.length tasks in
  List.map Domain.join
    (List.map
       (fun task ->
         Domain.spawn (fun () ->
             Atomic.incr ready;
             while Atomic.get ready < n do Domain.cpu_relax () done;
             task ()))
       tasks)

(* K domains commit disjoint one-node appends at once, with a journal.
   Every acknowledged commit is published, in its writer's order; the
   served classes follow the published epoch; and the journal recovers
   the live document at the live seq. *)
let test_concurrent_commits () =
  let writers = List.init 4 (Printf.sprintf "w%d") in
  let policy = conc_policy ~writers ~others:[ "r" ] in
  let doc0 = conc_doc writers in
  let dir = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.open_dir dir in
  Store.init store doc0;
  let serve = Core.Serve.create ~persist:store policy doc0 in
  Core.Serve.login_many serve ("r" :: writers);
  let per_writer = 20 in
  let acked =
    all_at_once
      (List.map
         (fun user () ->
           List.init per_writer (fun j ->
               let text = Printf.sprintf "%s.%d" user j in
               commit_ok serve ~user
                 [ Core.Op.Doc (Op.append ("/patients/" ^ user) (item text)) ];
               text))
         writers)
  in
  let source = Core.Serve.source serve in
  List.iter2
    (fun user acked ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s's acknowledged commits are published, in order" user)
        acked
        (List.filter_map (D.label source)
           (Xpath.Eval.select_str source
              (Printf.sprintf "/patients/%s/item/text()" user))))
    writers acked;
  Test_support.Snapshot_check.check_served "concurrent commits" serve;
  Store.close store;
  let r = Core.Txn.recover policy dir in
  Alcotest.(check int) "recovered seq = commits"
    (List.length writers * per_writer)
    r.Core.Txn.seq;
  Alcotest.(check bool) "recovered document = live document" true
    (D.equal r.Core.Txn.doc source)

(* One domain commits while another logs in users of distinct classes,
   first with document batches only, then with every other batch a
   policy batch: no login is lost to a re-key, and no class is left on
   an epoch a commit replaced. *)
let test_logins_during_commits () =
  let others = List.init 40 (Printf.sprintf "u%02d") in
  let policy = conc_policy ~writers:[ "w0" ] ~others in
  List.iter
    (fun (what, policy_batches) ->
      let serve = Core.Serve.create policy (conc_doc [ "w0" ]) in
      Core.Serve.login serve ~user:"w0";
      let toggled = ref None in
      let commits () =
        for k = 0 to 99 do
          let op =
            if k mod 2 = 0 || not policy_batches then
              Core.Op.Doc (Op.append "/patients/w0" (item (string_of_int k)))
            else toggle serve toggled ~path:"/patients/w0/item" ~subject:"staff"
          in
          commit_ok serve ~user:"w0" [ op ]
        done
      in
      let logins () =
        List.iter (fun user -> Core.Serve.login serve ~user) others
      in
      ignore (all_at_once [ commits; logins ]);
      Alcotest.(check (list string))
        (what ^ ": every user stays logged in")
        (List.sort String.compare ("w0" :: others))
        (Core.Serve.users serve);
      Alcotest.(check int) (what ^ ": one class per user")
        (1 + List.length others) (Core.Serve.classes serve);
      Test_support.Snapshot_check.check_served what serve)
    [ ("document batches", false); ("document and policy batches", true) ]

(* Reader domains query while commits publish: every answer is what a
   fresh login gives on one of the epochs the commits published. *)
let test_reads_during_commits () =
  let readers = [ "r0"; "r1" ] in
  let policy = conc_policy ~writers:[ "w0" ] ~others:readers in
  let serve = Core.Serve.create policy (conc_doc [ "w0" ]) in
  let users = "w0" :: readers in
  Core.Serve.login_many serve users;
  let queries =
    [ "//item"; "//node()"; "//item/node()"; "/patients/w0/item[2]";
      "//item[node()]" ]
  in
  let epochs = ref [ (Core.Serve.source serve, Core.Serve.policy serve) ] in
  let finished = Atomic.make false in
  let commits () =
    let toggled = ref None in
    for k = 0 to 29 do
      let op =
        if k mod 3 <> 2 then
          Core.Op.Doc (Op.append "/patients/w0" (item (string_of_int k)))
        else toggle serve toggled ~path:"/patients/w0/item" ~subject:"r0"
      in
      commit_ok serve ~user:"w0" [ op ];
      epochs := (Core.Serve.source serve, Core.Serve.policy serve) :: !epochs
    done;
    Atomic.set finished true;
    []
  in
  let answer ids = List.map Ordpath.to_string ids in
  let reads offset () =
    let rec go k acc =
      if Atomic.get finished && k > 0 then acc
      else
        let user = List.nth users ((k + offset) mod List.length users)
        and q = List.nth queries (k mod List.length queries) in
        go (k + 1) ((user, q, answer (Core.Serve.query serve ~user q)) :: acc)
    in
    go 0 []
  in
  let seen = List.concat (all_at_once [ commits; reads 0; reads 1 ]) in
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (doc, policy) ->
      List.iter
        (fun user ->
          let fresh = Core.Session.login policy doc ~user in
          List.iter
            (fun q ->
              Hashtbl.add expected (user, q) (answer (Core.Session.query fresh q)))
            queries)
        users)
    !epochs;
  List.iter
    (fun (user, q, got) ->
      if not (List.mem got (Hashtbl.find_all expected (user, q))) then
        Alcotest.failf "%s's %s answered [%s], on no published epoch" user q
          (String.concat " " got))
    seen;
  Alcotest.(check bool) "the readers read" true (seen <> [])

let () =
  Alcotest.run "txn"
    [
      ( "equivalence",
        [
          Alcotest.test_case "150 seeded batches ≡ sequential apply" `Quick
            test_equivalence;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "210 seeded aborts are observationally absent"
            `Quick test_atomicity;
          Alcotest.test_case "commit metrics" `Quick test_commit_metrics;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "every journal byte-prefix" `Quick
            test_recovery_every_prefix;
          Alcotest.test_case "corrupt middle record" `Quick
            test_recovery_corrupt_middle;
          Alcotest.test_case "snapshot + tail replay" `Quick
            test_recovery_with_snapshots;
          Alcotest.test_case "non-downward rule paths (fallback perms)"
            `Quick test_recovery_non_downward;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "commits from four domains all publish" `Quick
            test_concurrent_commits;
          Alcotest.test_case "logins during commits all stay" `Quick
            test_logins_during_commits;
          Alcotest.test_case "reads answer on published epochs"
            `Quick test_reads_during_commits;
        ] );
    ]
