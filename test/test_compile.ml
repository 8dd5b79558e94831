(* Differential property tests for the compiled policy matcher and the
   Domain pool:

   (a) Xpath.Compile acceptance ≡ Xpath.Eval.select membership, on seeded
       random documents × random downward paths (all paths merged into
       ONE automaton, resolved in one pass);
   (b) Perm.compute (compiled one-pass + fallback merge) ≡
       Perm.compute_per_rule (the reference per-rule loop), on seeded
       random doc/policy pairs, downward-only and mixed pools;
   (c) Perm.update after a secure write (compiled subtree re-resolution
       resuming from the affected root's ancestor state) ≡ a fresh
       compute on the new document;
   (d) a Serve with a size-4 pool answers bit-for-bit like a size-1
       (sequential) Serve across a random write workload;
   (e) Perm.update picking from one shared match of the policy's
       automaton ≡ each class re-matching its own rules, rule statistics
       included.

   Every case derives from a seeded PRNG; failures print the seed. *)

open Xmldoc
module D = Document
module Ast = Xpath.Ast
module Op = Xupdate.Op
module Prng = Workload.Prng

let base_seed = 20260806

(* ------------------------------------------------------------------ *)
(* Random downward paths (AST-level)                                   *)
(* ------------------------------------------------------------------ *)

let element_labels =
  [ "patients"; "service"; "diagnosis"; "visit"; "date"; "note";
    "franck"; "robert"; "ghost" ]

let attr_labels = [ "n"; "missing" ]

let random_test rng ~attr =
  if attr then
    let rng, k = Prng.int rng 4 in
    (match k with
     | 0 | 1 ->
       let rng, name = Prng.pick rng attr_labels in
       (rng, Ast.Name name)
     | 2 -> (rng, Ast.Star)
     | _ -> (rng, Ast.Node_test))
  else
    let rng, k = Prng.int rng 8 in
    (match k with
     | 0 | 1 | 2 | 3 ->
       let rng, name = Prng.pick rng element_labels in
       (rng, Ast.Name name)
     | 4 -> (rng, Ast.Star)
     | 5 -> (rng, Ast.Node_test)
     | 6 -> (rng, Ast.Text_test)
     | _ -> (rng, Ast.Comment_test))

let random_step rng =
  let rng, axis =
    Prng.pick_weighted rng
      [
        (4, Ast.Child);
        (3, Ast.Descendant);
        (2, Ast.Descendant_or_self);
        (1, Ast.Self);
        (2, Ast.Attribute);
      ]
  in
  let rng, test = random_test rng ~attr:(axis = Ast.Attribute) in
  (rng, { Ast.axis; test; preds = [] })

let random_down_path rng =
  let rng, len = Prng.int rng 4 in
  let rec steps rng acc i =
    if i = len + 1 then (rng, List.rev acc)
    else
      let rng, s = random_step rng in
      steps rng (s :: acc) (i + 1)
  in
  let rng, s = steps rng [] 0 in
  let rng, absolute = Prng.bool rng 0.7 in
  let path = Ast.Path { absolute; steps = s } in
  let rng, union = Prng.bool rng 0.25 in
  if union then
    let rng, s2 = steps rng [] 0 in
    (rng, Ast.Union (path, Ast.Path { absolute = true; steps = s2 }))
  else (rng, path)

let random_doc rng seed =
  let rng, patients = Prng.int rng 5 in
  let rng, visits = Prng.int rng 3 in
  ( rng,
    Workload.Gen_doc.generate
      {
        Workload.Gen_doc.patients = patients + 1;
        visits_per_patient = visits;
        diagnosed_fraction = 0.7;
        seed;
      } )

let sorted_ids ids =
  List.sort_uniq Ordpath.compare ids |> List.map Ordpath.to_string

(* (a) one merged automaton ≡ one Eval.select per path *)
let test_matcher_vs_select () =
  for case = 0 to 119 do
    let seed = base_seed + case in
    let rng = Prng.create seed in
    let rng, doc = random_doc rng seed in
    let rng, n_paths = Prng.int rng 5 in
    let rec gen rng acc i =
      if i = n_paths + 1 then (rng, List.rev acc)
      else
        let rng, p = random_down_path rng in
        gen rng (p :: acc) (i + 1)
    in
    let _, paths = gen rng [] 0 in
    let matcher =
      Xpath.Compile.compile (List.mapi (fun i p -> (i, p)) paths)
    in
    let accepted = Array.make (List.length paths) [] in
    Xpath.Compile.fold matcher doc ~init:() ~f:(fun () n payloads ->
        List.iter
          (fun i -> accepted.(i) <- n.Node.id :: accepted.(i))
          payloads);
    let env = Xpath.Eval.env doc in
    List.iteri
      (fun i p ->
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d path %d: %s" seed i (Ast.to_string p))
          (sorted_ids (Xpath.Eval.select env p))
          (sorted_ids accepted.(i)))
      paths
  done

(* ------------------------------------------------------------------ *)
(* (b) compiled Perm ≡ per-rule reference                              *)
(* ------------------------------------------------------------------ *)

let local_rule_paths =
  [
    "//node()"; "/patients"; "/patients/node()"; "//service"; "//diagnosis";
    "//diagnosis/node()"; "//visit"; "//visit/node()"; "//date"; "//note";
    "//service/node()"; "//text()"; "/patients/*"; "//visit/@n";
    "/patients/descendant-or-self::node()"; "//diagnosis/self::*";
  ]

let check_perm_equal ~what doc a b =
  Alcotest.(check string) (what ^ ": same user") (Core.Perm.user a)
    (Core.Perm.user b);
  List.iter
    (fun (n : Node.t) ->
      List.iter
        (fun privilege ->
          let show = function
            | None -> "(none)"
            | Some r -> Format.asprintf "%a" Core.Rule.pp r
          in
          let ra = Core.Perm.deciding_rule a privilege n.id in
          let rb = Core.Perm.deciding_rule b privilege n.id in
          let same =
            match ra, rb with
            | None, None -> true
            | Some x, Some y -> Core.Rule.equal x y
            | _ -> false
          in
          if not same then
            Alcotest.failf "%s: node %s privilege %s: %s vs %s" what
              (Ordpath.to_string n.id)
              (Core.Privilege.to_string privilege)
              (show ra) (show rb))
        Core.Privilege.all)
    (D.nodes doc)

let test_perm_vs_reference () =
  for case = 0 to 119 do
    let seed = base_seed + 1000 + case in
    let rng = Prng.create seed in
    let rng, doc = random_doc rng seed in
    let rng, use_local = Prng.bool rng 0.5 in
    let _, rules = Prng.int rng 10 in
    let config = { Workload.Gen_policy.rules = rules + 3; deny_fraction = 0.3; seed } in
    let policy =
      if use_local then
        Workload.Gen_policy.random ~paths:local_rule_paths config
      else Workload.Gen_policy.random config
    in
    let compiled = Core.Perm.compute policy (Flat.of_document doc) ~user:"u" in
    let reference = Core.Perm.compute_per_rule policy doc ~user:"u" in
    check_perm_equal ~what:(Printf.sprintf "seed %d" seed) doc compiled
      reference;
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: same facts" seed)
      (List.map
         (fun (p, id) ->
           Core.Privilege.to_string p ^ " " ^ Ordpath.to_string id)
         (Core.Perm.facts reference doc))
      (List.map
         (fun (p, id) ->
           Core.Privilege.to_string p ^ " " ^ Ordpath.to_string id)
         (Core.Perm.facts compiled doc))
  done

(* ------------------------------------------------------------------ *)
(* (c) compiled delta update ≡ fresh compute                           *)
(* ------------------------------------------------------------------ *)

let target_paths =
  [
    "/patients"; "/patients/*"; "//service"; "//diagnosis"; "//visit";
    "//note"; "//date"; "//diagnosis/text()"; "//service/text()";
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

let test_update_vs_recompute () =
  for case = 0 to 59 do
    let seed = base_seed + 2000 + case in
    let rng = Prng.create seed in
    let rng, doc = random_doc rng seed in
    let rng, rules = Prng.int rng 8 in
    let policy =
      Workload.Gen_policy.random ~paths:local_rule_paths
        { Workload.Gen_policy.rules = rules + 4; deny_fraction = 0.3; seed }
    in
    let session = Core.Session.login policy doc ~user:"u" in
    let _, op = random_op rng in
    let session', _report = Core.Secure_update.apply session op in
    let doc' = Core.Session.source session' in
    check_perm_equal ~what:(Printf.sprintf "seed %d after %s" seed
                              (Format.asprintf "%a" Op.pp op))
      doc'
      (Core.Session.perm session')
      (Core.Perm.compute policy (Flat.of_document doc') ~user:"u")
  done

(* ------------------------------------------------------------------ *)
(* (e) one shared match per commit ≡ each class matching its own rules  *)
(* ------------------------------------------------------------------ *)

(* The policy's automaton runs once over the write's delta, and each of
   three subjects with different applicable rules picks its winners by
   its bitset: the stores must equal a fresh compute and the per-class
   re-match, and the rule statistics must count the same matches and
   decisions as the per-class re-match does. *)
let test_shared_match () =
  let was = Obs.Rulestats.enabled () in
  Obs.Rulestats.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Rulestats.clear ();
      Obs.Rulestats.set_enabled was)
  @@ fun () ->
  let counted f =
    Obs.Rulestats.clear ();
    let perm = f () in
    ( perm,
      List.map
        (fun (r : Obs.Rulestats.report) -> (r.r_key, r.r_matched, r.r_decided))
        (Obs.Rulestats.reports ()) )
  in
  (* Three commits in a row on one index: the index's determinisation
     run outlives each match, and must change neither the decisions nor
     the counts. *)
  let matched_cases = ref 0 in
  for case = 0 to 59 do
    let seed = base_seed + 4000 + case in
    let rng = Prng.create seed in
    let rng, doc = random_doc rng seed in
    let rng, rules = Prng.int rng 8 in
    let policy =
      Workload.Gen_policy.random ~paths:local_rule_paths
        { Workload.Gen_policy.rules = rules + 4; deny_fraction = 0.3; seed }
    in
    let index = Core.Policy.index policy in
    let rec commits rng doc k =
      if k < 3 then begin
        let rng, op = random_op rng in
        match Xupdate.Apply.apply doc op with
        | exception Xpath.Eval.Error _ -> commits rng doc (k + 1)
        | outcome -> (
          let doc' = outcome.Xupdate.Apply.doc in
          match Core.Delta.of_roots (Xupdate.Apply.affected_roots outcome) with
          | Core.Delta.All | Core.Delta.Local [] -> commits rng doc' (k + 1)
          | Core.Delta.Local roots as delta ->
            incr matched_cases;
            let fl = Flat.of_document doc and fl' = Flat.of_document doc' in
            let matched = Core.Perm.match_delta index fl' roots in
            List.iter
              (fun user ->
                let what =
                  Printf.sprintf "seed %d, commit %d, %s after %s" seed k user
                    (Format.asprintf "%a" Op.pp op)
                in
                let base = Core.Perm.compute policy fl ~user in
                let shared, shared_counts =
                  counted (fun () ->
                      Core.Perm.update ~flat:fl' ~matched base policy doc'
                        delta)
                in
                let own, own_counts =
                  counted (fun () ->
                      Core.Perm.update ~flat:fl' base policy doc' delta)
                in
                check_perm_equal ~what doc' shared
                  (Core.Perm.compute policy fl' ~user);
                check_perm_equal ~what doc' shared own;
                Alcotest.(check (list (triple int int int)))
                  (what ^ ": rule statistics") own_counts shared_counts)
              [ "r1"; "r2"; "u" ];
            commits rng doc' (k + 1))
      end
    in
    commits rng doc 0
  done;
  Alcotest.(check bool) "most writes changed something" true
    (!matched_cases > 90)

(* ------------------------------------------------------------------ *)
(* (d) pool 4 ≡ pool 1 (sequential), bit for bit                       *)
(* ------------------------------------------------------------------ *)

let test_pool_vs_sequential () =
  let config =
    { Workload.Gen_doc.patients = 6; visits_per_patient = 2;
      diagnosed_fraction = 0.8; seed = base_seed }
  in
  let doc = Workload.Gen_doc.generate config in
  let policy = Workload.Gen_policy.hospital config in
  let users =
    Workload.Gen_policy.hospital_staff
    @ [ List.hd (Workload.Gen_doc.patient_names config) ]
  in
  let serve_seq = Core.Serve.create ~pool:(Core.Pool.create 1) policy doc in
  let serve_par = Core.Serve.create ~pool:(Core.Pool.create 4) policy doc in
  List.iter (fun user -> Core.Serve.login serve_seq ~user) users;
  Core.Serve.login_many serve_par users;
  let check_agreement step =
    List.iter
      (fun user ->
        Alcotest.(check bool)
          (Printf.sprintf "step %d: %s: same materialised view" step user)
          true
          (D.equal
             (Core.Serve.view serve_seq ~user)
             (Core.Serve.view serve_par ~user));
        Alcotest.(check (list string))
          (Printf.sprintf "step %d: %s: same query answer" step user)
          (List.map Ordpath.to_string
             (Core.Serve.query serve_seq ~user "//node()"))
          (List.map Ordpath.to_string
             (Core.Serve.query serve_par ~user "//node()")))
      users
  in
  check_agreement 0;
  let rng = ref (Prng.create (base_seed + 3000)) in
  for step = 1 to 40 do
    let r, writer = Prng.pick !rng Workload.Gen_policy.hospital_staff in
    let r, op = random_op r in
    rng := r;
    let rs = Core.Serve.update serve_seq ~user:writer op in
    let rp = Core.Serve.update serve_par ~user:writer op in
    Alcotest.(check bool)
      (Printf.sprintf "step %d: same report outcome" step)
      (Core.Secure_update.fully_applied rs)
      (Core.Secure_update.fully_applied rp);
    Alcotest.(check bool)
      (Printf.sprintf "step %d: same source" step)
      true
      (D.equal (Core.Serve.source serve_seq) (Core.Serve.source serve_par));
    if step mod 8 = 0 then check_agreement step
  done;
  check_agreement 41

let () =
  Alcotest.run "compile"
    [
      ( "matcher",
        [
          Alcotest.test_case "≡ Eval.select on random downward paths" `Quick
            test_matcher_vs_select;
        ] );
      ( "perm",
        [
          Alcotest.test_case "compiled ≡ per-rule reference" `Quick
            test_perm_vs_reference;
          Alcotest.test_case "delta update ≡ fresh compute" `Quick
            test_update_vs_recompute;
          Alcotest.test_case "shared delta match ≡ per-class match" `Quick
            test_shared_match;
        ] );
      ( "pool",
        [
          Alcotest.test_case "pool 4 ≡ pool 1 (sequential)" `Quick
            test_pool_vs_sequential;
        ] );
    ]
