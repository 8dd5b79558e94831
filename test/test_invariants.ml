(* Failure-injection suite: random secure-update sequences must keep the
   source database and every derived view structurally valid, preserve
   the no-renumbering contract, and never widen a user's access. *)

open Xmldoc
module P = Core.Paper_example

let test_valid_examples () =
  Alcotest.(check (list string)) "paper example" []
    (Invariants.check_document (P.document ()));
  Alcotest.(check (list string)) "empty document" []
    (Invariants.check Document.empty);
  let generated =
    Workload.Gen_doc.generate { Workload.Gen_doc.default with patients = 30 }
  in
  Alcotest.(check (list string)) "generated hospital" []
    (Invariants.check_document generated)

let test_detects_orphans_and_kinds () =
  let doc = P.document () in
  let orphan =
    Document.add_node doc
      (Node.v ~id:(Ordpath.of_string "5.1") ~kind:Node.Element "stray")
  in
  Alcotest.(check bool) "missing parent" false (Invariants.is_valid orphan);
  let text_with_child =
    let text_id = P.find doc "tonsillitis" in
    Document.add_node doc
      (Node.v ~id:(Ordpath.first_child text_id) ~kind:Node.Text "inside-text")
  in
  Alcotest.(check bool) "text node with a child" false
    (Invariants.is_valid text_with_child);
  let fake_document =
    Document.add_node doc
      (Node.v ~id:(Ordpath.of_string "7") ~kind:Node.Document "/")
  in
  Alcotest.(check bool) "second document-kind node" false
    (Invariants.is_valid fake_document);
  let two_roots =
    fst
      (Document.append_tree doc ~parent:Ordpath.document
         (Tree.element "second-root" []))
  in
  Alcotest.(check bool) "tree invariant still fine" true
    (Invariants.is_valid two_roots);
  Alcotest.(check bool) "but not a single-root document" false
    (Invariants.check_document two_roots = [])

(* --- exact messages --------------------------------------------------------- *)

(* The wording is part of the interface: Txn.Invalid carries these strings
   to callers and logs. *)
let test_messages () =
  let doc = P.document () in
  let expect name expected doc =
    Alcotest.(check (list string)) name expected (Invariants.check doc)
  in
  expect "orphan" [ "node 5.1: parent 5 missing" ]
    (Document.add_node doc
       (Node.v ~id:(Ordpath.of_string "5.1") ~kind:Node.Element "stray"));
  let text_id = P.find doc "tonsillitis" in
  expect "text node with children" [ "node 1.1.3.1: text node with children" ]
    (Document.add_node doc
       (Node.v ~id:(Ordpath.first_child text_id) ~kind:Node.Text "inside-text"));
  expect "document-level text" [ "document-level text node 3" ]
    (fst (Document.append_tree doc ~parent:Ordpath.document (Tree.text "loose")));
  let franck = P.find doc "franck" in
  let with_attr, attr = Document.append_tree doc ~parent:franck (Tree.attr "k" "v") in
  expect "attribute with an element child"
    [ "node 1.1.5: attribute with non-text child 1.1.5.3" ]
    (fst (Document.append_tree with_attr ~parent:attr (Tree.element "bad" [])));
  expect "second document-kind node" [ "node 7: non-root node of document kind" ]
    (Document.add_node doc
       (Node.v ~id:(Ordpath.of_string "7") ~kind:Node.Document "/"))

(* --- the delta-scoped check ------------------------------------------------- *)

(* Raw inserts the XUpdate layer refuses or never makes: document-level
   text, and children under whatever node the draw lands on — text,
   comment and attribute nodes included. *)
let raw_insert rng doc =
  let nodes = Array.of_list (Document.nodes doc) in
  let rng, i = Workload.Prng.int rng (Array.length nodes) in
  let rng, pick = Workload.Prng.int rng 4 in
  let parent, tree =
    match pick with
    | 0 -> (Ordpath.document, Tree.text "loose")
    | 1 -> (nodes.(i).Node.id, Tree.element "inner" [ Tree.text "x" ])
    | 2 -> (nodes.(i).Node.id, Tree.comment "c")
    | _ -> (nodes.(i).Node.id, Tree.text "inner")
  in
  let doc', id = Document.append_tree doc ~parent tree in
  (rng, doc', [ id ])

let scoped_paths =
  [ "//node()"; "/patients/*"; "//diagnosis/node()"; "//text()"; "//@*";
    "//@*/text()"; "/patients"; "/patients/*[1]/*[last()]"; "/" ]

let xupdate_step rng doc =
  let rng, path = Workload.Prng.pick rng scoped_paths in
  let rng, kind = Workload.Prng.int rng 6 in
  let rng, tree =
    Workload.Prng.pick rng
      [ Tree.element "note" [ Tree.attr "by" "me"; Tree.text "t" ];
        Tree.text "loose"; Tree.comment "c" ]
  in
  let op =
    match kind with
    | 0 -> Xupdate.Op.rename path "renamed"
    | 1 -> Xupdate.Op.update path "updated"
    | 2 -> Xupdate.Op.append path tree
    | 3 -> Xupdate.Op.insert_before path tree
    | 4 -> Xupdate.Op.insert_after path tree
    | _ -> Xupdate.Op.remove path
  in
  match Xupdate.Apply.apply doc op with
  | o -> (rng, o.Xupdate.Apply.doc, Xupdate.Apply.affected_roots o)
  | exception _ -> (rng, doc, [])

(* From valid documents only (the scoped check's contract), a step is one
   or two changes with their roots unioned; a step that breaks the tree
   is checked and then undone, so the walk stays on valid documents. *)
let test_scoped_matches_full () =
  let violating = ref 0 and steps = ref 0 in
  for case = 0 to 59 do
    let rng = ref (Workload.Prng.create (7919 * (case + 1))) in
    let doc =
      ref
        (Workload.Gen_doc.generate
           { Workload.Gen_doc.default with patients = 1 + (case mod 5); seed = case })
    in
    for _ = 1 to 40 do
      let r, n = Workload.Prng.int !rng 2 in
      let rec go r doc' roots i =
        if i = 0 then (r, doc', roots)
        else
          let r, coin = Workload.Prng.int r 3 in
          let r, doc'', roots' =
            if coin = 0 then raw_insert r doc' else xupdate_step r doc'
          in
          go r doc'' (roots' @ roots) (i - 1)
      in
      let r, doc', roots = go r !doc [] (n + 1) in
      rng := r;
      incr steps;
      let full = Invariants.check doc' in
      let scoped = Invariants.check_scoped doc' ~roots in
      if scoped <> full then
        Alcotest.failf "case %d: roots [%s]\nfull:   %s\nscoped: %s\nfacts: %s"
          case
          (String.concat ", " (List.map Ordpath.to_string roots))
          (String.concat " | " full) (String.concat " | " scoped)
          (Xml_print.facts doc');
      if full = [] then doc := doc' else incr violating
    done
  done;
  if !violating < !steps / 10 then
    Alcotest.failf "only %d of %d steps produced violations" !violating !steps

(* A store that arrives broken is checked in full: a batch that never
   touches the orphan still aborts, even right after a commit on the
   same document succeeded (so a scoped check was available). *)
let test_orphan_source_aborts () =
  let policy =
    let open Core in
    Policy.v
      (Subject.of_list [ (Subject.User, "u", []) ])
      [ Rule.accept Privilege.Read ~path:"//node()" ~subject:"u" ~priority:1;
        Rule.accept Privilege.Update ~path:"//node()" ~subject:"u" ~priority:2;
        Rule.accept Privilege.Insert ~path:"/" ~subject:"u" ~priority:3 ]
  in
  let commit doc ops = Core.Txn.commit (Core.Session.login policy doc ~user:"u") ops in
  let doc =
    match commit (P.document ()) [ Xupdate.Op.update "/patients/franck/service" "oncology" ] with
    | Ok c -> Core.Session.source c.Core.Txn.session
    | Error e -> Alcotest.failf "setup commit: %s" (Core.Txn.error_to_string e)
  in
  let broken =
    Document.add_node doc
      (Node.v ~id:(Ordpath.of_string "5.1") ~kind:Node.Element "stray")
  in
  (match commit broken [ Xupdate.Op.update "/patients/robert/service" "ent" ] with
   | Error (Core.Txn.Invalid { violations; _ }) ->
     Alcotest.(check (list string)) "the orphan is reported"
       [ "node 5.1: parent 5 missing" ] violations
   | Ok _ -> Alcotest.fail "a batch on a store with an orphan committed"
   | Error e -> Alcotest.failf "wrong abort: %s" (Core.Txn.error_to_string e));
  (* On the committed document the check is scoped to the batch's delta,
     and still catches a violation the batch makes. *)
  match commit doc [ Xupdate.Op.insert_before "/patients" (Tree.text "loose") ] with
  | Error (Core.Txn.Invalid { violations; _ }) ->
    Alcotest.(check (list string)) "document-level text is reported"
      [ "document-level text node -1" ] violations
  | Ok _ -> Alcotest.fail "document-level text committed"
  | Error e -> Alcotest.failf "wrong abort: %s" (Core.Txn.error_to_string e)

(* --- failure injection ---------------------------------------------------- *)

let random_op rng =
  let paths =
    [ "//node()"; "/patients"; "/patients/*"; "//diagnosis"; "//service";
      "//diagnosis/node()"; "//text()"; "//RESTRICTED"; "/patients/*[1]" ]
  in
  let labels = [ "x"; "renamed"; "updated" ] in
  let rng, path = Workload.Prng.pick rng paths in
  let rng, label = Workload.Prng.pick rng labels in
  let tree = Tree.element "note" [ Tree.text "injected" ] in
  let rng, op_kind = Workload.Prng.int rng 6 in
  ( rng,
    match op_kind with
    | 0 -> Xupdate.Op.rename path label
    | 1 -> Xupdate.Op.update path label
    | 2 -> Xupdate.Op.append path tree
    | 3 -> Xupdate.Op.insert_before path tree
    | 4 -> Xupdate.Op.insert_after path tree
    | _ -> Xupdate.Op.remove path )

let users = [ P.beaufort; P.laporte; P.richard; P.robert ]

let prop_updates_preserve_invariants =
  QCheck.Test.make ~count:80
    ~name:"random secure-update sequences keep source and views valid"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Workload.Prng.create seed in
      let rng, steps = Workload.Prng.int rng 8 in
      let rec go rng session i ok =
        if (not ok) || i = steps then ok
        else
          let rng, user = Workload.Prng.pick rng users in
          let rng, op = random_op rng in
          let session =
            Core.Session.login (Core.Session.policy session)
              (Core.Session.source session) ~user
          in
          let session, _report = Core.Secure_update.apply session op in
          let source_ok =
            Invariants.check_document (Core.Session.source session) = []
          in
          let view_ok = Invariants.check (Core.Session.view session) = [] in
          go rng session (i + 1) (ok && source_ok && view_ok)
      in
      go rng (P.login P.laporte) 0 true)

let prop_no_renumbering_across_sequences =
  (* The §3.1 contract holds per update: a node surviving an operation
     keeps its identifier and kind.  (Across several operations an
     identifier freed by a remove may legitimately be reallocated to a
     fresh node, so the invariant is checked step by step.) *)
  QCheck.Test.make ~count:60
    ~name:"surviving nodes keep id and kind across each update"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Workload.Prng.create seed in
      let rec go rng session i ok =
        if (not ok) || i = 5 then ok
        else
          let rng, op = random_op rng in
          let before = Core.Session.source session in
          let session, _ = Core.Secure_update.apply session op in
          let after = Core.Session.source session in
          let step_ok =
            Document.fold
              (fun (n : Node.t) ok ->
                ok
                &&
                match Document.find after n.id with
                | None -> true (* removed *)
                | Some m -> m.kind = n.kind)
              before true
          in
          go rng session (i + 1) step_ok
      in
      go rng (P.login P.laporte) 0 true)

let prop_view_monotone_under_foreign_updates =
  (* A user's view never shows a node the user holds neither read nor
     position on, no matter what other users did to the database. *)
  QCheck.Test.make ~count:60 ~name:"views never over-expose after updates"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Workload.Prng.create seed in
      let rec go rng doc i =
        if i = 4 then doc
        else
          let rng, user = Workload.Prng.pick rng users in
          let rng, op = random_op rng in
          let session = Core.Session.login P.policy doc ~user in
          let session, _ = Core.Secure_update.apply session op in
          go rng (Core.Session.source session) (i + 1)
      in
      let doc = go rng (P.document ()) 0 in
      List.for_all
        (fun user ->
          let session = Core.Session.login P.policy doc ~user in
          let perm = Core.Session.perm session in
          Document.fold
            (fun (n : Node.t) ok ->
              ok
              && (n.kind = Node.Document
                 || Core.Perm.holds perm Core.Privilege.Read n.id
                 || Core.Perm.holds perm Core.Privilege.Position n.id))
            (Core.Session.view session)
            true)
        users)

let () =
  Alcotest.run "invariants"
    [
      ( "checks",
        [
          Alcotest.test_case "valid documents" `Quick test_valid_examples;
          Alcotest.test_case "violations detected" `Quick
            test_detects_orphans_and_kinds;
          Alcotest.test_case "exact violation messages" `Quick test_messages;
        ] );
      ( "scoped check",
        [
          Alcotest.test_case "60 seeded walks: scoped = full" `Quick
            test_scoped_matches_full;
          Alcotest.test_case "a broken source gets the full check" `Quick
            test_orphan_source_aborts;
        ] );
      ( "failure injection",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_updates_preserve_invariants;
            prop_no_renumbering_across_sequences;
            prop_view_monotone_under_foreign_updates;
          ] );
    ]
