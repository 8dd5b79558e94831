(* Final-coverage suite: rendering formats, policy-language corners,
   session variables, hashing, and cross-feature interactions that the
   per-module suites do not reach. *)

open Xmldoc
module P = Core.Paper_example

(* --- renderings ------------------------------------------------------------ *)

let test_tree_view_golden () =
  let doc = Xml_parse.of_string "<a><b>x</b><c k=\"v\"/></a>" in
  Alcotest.(check string) "tree view"
    "/            /\n\
     1              /a\n\
     1.1              /b\n\
     1.1.1              text()x\n\
     1.3              /c\n\
     1.3.1              @k\n\
     1.3.1.1              text()v\n"
    (Xml_print.tree_view doc);
  Alcotest.(check string) "without ids"
    "/\n  /a\n    /b\n      text()x\n    /c\n      @k\n        text()v\n"
    (Xml_print.tree_view ~show_ids:false doc)

let test_facts_golden () =
  let doc = Xml_parse.of_string "<a><b>x</b></a>" in
  Alcotest.(check string) "facts notation"
    "{ node(/, /), node(1, a), node(1.1, b), node(1.1.1, x) }"
    (Xml_print.facts doc)

let test_indented_xml () =
  let doc = Xml_parse.of_string "<a><b>x</b><c><d/></c></a>" in
  Alcotest.(check string) "indented form"
    "<a>\n  <b>x</b>\n  <c>\n    <d/>\n  </c>\n</a>\n"
    (Xml_print.to_string ~indent:true doc)

(* --- policy language corners ------------------------------------------------ *)

let test_policy_lang_corners () =
  let p =
    Core.Policy_lang.parse
      {|
# leading comment and blank lines are fine

role staff          # trailing comment
role nurse isa staff
role admin
user carla isa nurse,admin
grant read on //node() to carla
|}
  in
  Alcotest.(check (list string)) "multi-isa"
    [ "admin"; "carla"; "nurse"; "staff" ]
    (Core.Subject.ancestors (Core.Policy.subjects p) "carla");
  Alcotest.(check int) "one rule" 1 (List.length (Core.Policy.rules p));
  (* to_string of the roundtrip is stable (fixpoint). *)
  let s1 = Core.Policy_lang.to_string p in
  let s2 = Core.Policy_lang.to_string (Core.Policy_lang.parse s1) in
  Alcotest.(check string) "printing is a fixpoint" s1 s2

let test_policy_lang_reports_line_numbers () =
  match Core.Policy_lang.parse "role a\nrole b\ngrant fly on //x to a" with
  | exception Core.Policy_lang.Error { line; _ } ->
    Alcotest.(check int) "line 3" 3 line
  | _ -> Alcotest.fail "expected an error"

(* --- session variables ------------------------------------------------------ *)

let test_user_variable_in_session_queries () =
  let session = P.login P.robert in
  Alcotest.(check int) "$USER bound in queries" 1
    (List.length (Core.Session.query session "/patients/*[name() = $USER]"));
  let laporte = P.login P.laporte in
  Alcotest.(check int) "different session, different binding" 0
    (List.length (Core.Session.query laporte "/patients/*[name() = $USER]"))

(* --- hashing / ordering ------------------------------------------------------ *)

let test_ordpath_hash_consistent () =
  let a = Ordpath.of_string "1.2.1" in
  let b = Ordpath.of_components [ 1; 2; 1 ] in
  Alcotest.(check bool) "equal values" true (Ordpath.equal a b);
  Alcotest.(check int) "equal hashes" (Ordpath.hash a) (Ordpath.hash b)

let test_ordpath_set_map () =
  let ids = List.map Ordpath.of_string [ "1"; "1.1"; "1.3"; "1.1.1" ] in
  let set = Ordpath.Set.of_list ids in
  Alcotest.(check int) "set size" 4 (Ordpath.Set.cardinal set);
  Alcotest.(check (list string)) "sorted in document order"
    [ "1"; "1.1"; "1.1.1"; "1.3" ]
    (List.map Ordpath.to_string (Ordpath.Set.elements set))

(* --- datalog db extras -------------------------------------------------------- *)

let test_db_union_and_equality () =
  let mk atoms =
    List.fold_left
      (fun db s -> Datalog.Db.add db (Datalog.Parse.atom s))
      Datalog.Db.empty atoms
  in
  let a = mk [ "p(1)"; "q(x)" ] and b = mk [ "p(2)"; "q(x)" ] in
  let u = Datalog.Db.union a b in
  Alcotest.(check int) "union size" 3 (Datalog.Db.count u);
  Alcotest.(check bool) "equal on q" true (Datalog.Db.equal_on "q" a b);
  Alcotest.(check bool) "not equal on p" false (Datalog.Db.equal_on "p" a b);
  Alcotest.(check (list string)) "predicates sorted" [ "p"; "q" ]
    (Datalog.Db.predicates u)

(* --- cross-feature interactions ---------------------------------------------- *)

let test_insert_relative_to_restricted_sibling () =
  (* The secretary can address a RESTRICTED diagnosis element of a record
     she may update... here: insert after a RESTRICTED *element*. *)
  let subjects = Core.Subject.of_list [ (Core.Subject.User, "u", []) ] in
  let doc = Xml_parse.of_string "<r><hidden>x</hidden><open/></r>" in
  let policy =
    Core.Policy.v subjects []
    |> fun p -> Core.Policy.grant p Core.Privilege.Read ~path:"/r" ~subject:"u"
    |> fun p -> Core.Policy.grant p Core.Privilege.Read ~path:"//open" ~subject:"u"
    |> fun p ->
    Core.Policy.grant p Core.Privilege.Position ~path:"//hidden" ~subject:"u"
    |> fun p -> Core.Policy.grant p Core.Privilege.Insert ~path:"/r" ~subject:"u"
  in
  let session = Core.Session.login policy doc ~user:"u" in
  (* /r/RESTRICTED addresses the masked element on the view. *)
  let session, report =
    Core.Secure_update.apply session
      (Xupdate.Op.insert_after "/r/RESTRICTED" (Tree.element "marker" []))
  in
  Alcotest.(check bool) "applied" true (Core.Secure_update.fully_applied report);
  Alcotest.(check (list string)) "inserted between hidden and open"
    [ "hidden"; "marker"; "open" ]
    (List.map
       (fun (n : Node.t) -> n.label)
       (Document.element_children (Core.Session.source session)
          (P.find (Core.Session.source session) "r")))

let test_enforcer_position_only_policy () =
  (* A policy granting only position yields an all-RESTRICTED skeleton;
     the XSLT path must agree. *)
  let subjects = Core.Subject.of_list [ (Core.Subject.User, "u", []) ] in
  let doc = Xml_parse.of_string "<a><b>x</b></a>" in
  let policy =
    Core.Policy.v subjects []
    |> fun p ->
    Core.Policy.grant p Core.Privilege.Position ~path:"//node()" ~subject:"u"
  in
  let flat = Flat.of_document doc in
  let view = Core.View.derive flat (Core.Perm.compute policy flat ~user:"u") in
  Alcotest.(check (list string)) "all masked"
    [ "/"; "RESTRICTED"; "RESTRICTED"; "RESTRICTED" ]
    (List.map (fun (n : Node.t) -> n.label) (Document.nodes view));
  Alcotest.(check string) "XSLT agrees"
    (Xml_print.to_string ~indent:true view)
    (Xml_print.to_string ~indent:true
       (Core.Xslt_enforcer.enforce policy doc ~user:"u"))

let test_lazy_view_after_update () =
  (* A lazy view is a snapshot of (doc, perm): after a secure update, a
     fresh lazy view over the new session agrees with the new view. *)
  let session = P.login P.laporte in
  let session, _ =
    Core.Secure_update.apply session
      (Xupdate.Op.update "/patients/robert/diagnosis" "cured")
  in
  let source = Core.Session.source session in
  let lv = Core.Lazy_view.of_session (Flat.of_document source) session in
  let view =
    Test_support.View_oracle.derive source (Core.Session.perm session)
  in
  let labelled label ids =
    List.map
      (fun id ->
        Ordpath.to_string id ^ "=" ^ Option.value ~default:"-" (label id))
      ids
  in
  Alcotest.(check (list string)) "agrees after update"
    (labelled (Document.label view) (Xpath.Eval.select_str view "//node()"))
    (labelled (Core.Lazy_view.label lv)
       (Core.Lazy_view.select_str lv "//node()"));
  Alcotest.(check int) "query sees new text" 1
    (List.length (Core.Lazy_view.select_str lv "//text()[. = 'cured']"))

let test_admin_policy_feeds_enforcer () =
  (* Policies built through the delegation machinery flow into every
     enforcement path. *)
  let subjects =
    Core.Subject.of_list
      [ (Core.Subject.User, "owner", []); (Core.Subject.User, "alice", []) ]
  in
  let doc = Xml_parse.of_string "<lib><a>1</a><b>2</b></lib>" in
  let admin = Core.Admin.create ~owner:"owner" (Core.Policy.v subjects []) in
  let admin =
    match
      Core.Admin.grant admin doc ~issuer:"owner" Core.Privilege.Read
        ~path:"/lib/descendant-or-self::node()" ~subject:"alice"
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "grant failed: %s" e
  in
  let policy = Core.Admin.policy admin in
  let flat = Flat.of_document doc in
  let view = Core.View.derive flat (Core.Perm.compute policy flat ~user:"alice") in
  Alcotest.(check int) "alice sees all" 5 (Core.View.visible_count view);
  Alcotest.(check string) "XSLT path agrees"
    (Xml_print.to_string ~indent:true view)
    (Xml_print.to_string ~indent:true
       (Core.Xslt_enforcer.enforce policy doc ~user:"alice"));
  Alcotest.(check bool) "datalog path agrees" true
    (Core.Logic_encoding.view_parity
       (Core.Session.login policy doc ~user:"alice"))

let test_gen_query_determinism () =
  Alcotest.(check (list string)) "random queries are seeded"
    (Workload.Gen_query.random ~seed:9 ~count:10)
    (Workload.Gen_query.random ~seed:9 ~count:10);
  Alcotest.(check bool) "seed changes the stream" true
    (Workload.Gen_query.random ~seed:9 ~count:10
     <> Workload.Gen_query.random ~seed:10 ~count:10)

let test_view_helpers () =
  let session = P.login P.beaufort in
  let view = Core.Session.view session in
  let doc = Core.Session.source session in
  Alcotest.(check int) "visible count excludes document node" 11
    (Core.View.visible_count view);
  Alcotest.(check bool) "is_restricted on masked text" true
    (Core.View.is_restricted view
       (P.find doc "tonsillitis"));
  Alcotest.(check bool) "is_restricted on plain node" false
    (Core.View.is_restricted view (P.find doc "franck"))

let () =
  Alcotest.run "deep"
    [
      ( "renderings",
        [
          Alcotest.test_case "tree view golden" `Quick test_tree_view_golden;
          Alcotest.test_case "facts golden" `Quick test_facts_golden;
          Alcotest.test_case "indented xml" `Quick test_indented_xml;
        ] );
      ( "policy language",
        [
          Alcotest.test_case "corners" `Quick test_policy_lang_corners;
          Alcotest.test_case "line numbers" `Quick
            test_policy_lang_reports_line_numbers;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "$USER in queries" `Quick
            test_user_variable_in_session_queries;
          Alcotest.test_case "view helpers" `Quick test_view_helpers;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "ordpath hash" `Quick test_ordpath_hash_consistent;
          Alcotest.test_case "ordpath set/map" `Quick test_ordpath_set_map;
          Alcotest.test_case "db union/equality" `Quick
            test_db_union_and_equality;
          Alcotest.test_case "gen_query determinism" `Quick
            test_gen_query_determinism;
        ] );
      ( "interactions",
        [
          Alcotest.test_case "insert after RESTRICTED" `Quick
            test_insert_relative_to_restricted_sibling;
          Alcotest.test_case "position-only policy" `Quick
            test_enforcer_position_only_policy;
          Alcotest.test_case "lazy view after update" `Quick
            test_lazy_view_after_update;
          Alcotest.test_case "admin feeds enforcer" `Quick
            test_admin_policy_feeds_enforcer;
        ] );
    ]
