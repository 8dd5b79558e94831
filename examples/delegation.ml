(* Administration walkthrough: ownership, delegation with grant option,
   cascading revocation (the [10] administration model referenced in
   §4.3), plus the two §5 enforcement alternatives — the compiled XSLT
   security processor and the lazy query-filtering view.

   Run with: dune exec examples/delegation.exe *)

let subjects =
  Core.Subject.of_list
    [
      (Core.Subject.Role, "clerk", []);
      (Core.Subject.User, "chief", []);
      (Core.Subject.User, "alice", [ "clerk" ]);
      (Core.Subject.User, "bob", [ "clerk" ]);
    ]

let doc =
  Xmldoc.Xml_parse.of_string
    {|<hospital>
  <ward name="A">
    <patient><name>franck</name><diagnosis>tonsillitis</diagnosis></patient>
    <patient><name>robert</name><diagnosis>pneumonia</diagnosis></patient>
  </ward>
  <pharmacy>
    <stock item="aspirin">120</stock>
  </pharmacy>
</hospital>|}

let ok = function
  | Ok v -> v
  | Error msg -> failwith ("unexpected: " ^ msg)

let show_policy admin =
  print_string (Core.Policy_lang.to_string (Core.Admin.policy admin))

let () =
  print_endline "=== The chief owns the database ===";
  let admin = Core.Admin.create ~owner:"chief" (Core.Policy.v subjects []) in

  print_endline "\nchief lets every clerk see the database root (views are";
  print_endline "parent-closed: axioms 16-17 require the parent selected):";
  let admin =
    ok (Core.Admin.grant admin doc ~issuer:"chief" Core.Privilege.Read
          ~path:"/hospital" ~subject:"clerk")
  in

  print_endline "\nchief delegates read administration over ward A to alice,";
  print_endline "with the grant option:";
  let admin =
    ok (Core.Admin.delegate admin doc ~issuer:"chief" ~with_option:true
          Core.Privilege.Read ~path:"//ward/descendant-or-self::node()"
          ~subject:"alice")
  in
  let root_delegation = List.hd (Core.Admin.delegations admin) in

  print_endline "alice grants bob read access to the patients' records:";
  let admin =
    ok (Core.Admin.grant admin doc ~issuer:"alice" Core.Privilege.Read
          ~path:"//patient/descendant-or-self::node()" ~subject:"bob")
  in
  let admin =
    ok (Core.Admin.grant admin doc ~issuer:"alice" Core.Privilege.Read
          ~path:"//ward" ~subject:"bob")
  in

  print_endline "alice tries to touch the pharmacy (outside her authority):";
  (match
     Core.Admin.grant admin doc ~issuer:"alice" Core.Privilege.Read
       ~path:"//pharmacy" ~subject:"bob"
   with
   | Ok _ -> print_endline "  BUG: accepted"
   | Error msg -> Printf.printf "  rejected: %s\n" msg);

  print_endline "\nthe administered policy now reads:";
  show_policy admin;

  let policy = Core.Admin.policy admin in
  let flat = Xmldoc.Flat.of_document doc in
  let session = Core.Session.login ~flat policy doc ~user:"bob" in
  Printf.printf "\nbob's view (%d nodes):\n"
    (Core.View.visible_count (Core.Session.view session));
  print_string (Xmldoc.Xml_print.tree_view (Core.Session.view session));

  print_endline "\n=== Enforcement alternatives (§5) ===";
  print_endline "\n1. The compiled XSLT security processor:";
  print_string (Core.Xslt_enforcer.stylesheet_source policy ~user:"bob");
  let enforced = Core.Xslt_enforcer.enforce policy doc ~user:"bob" in
  Printf.printf "stylesheet output equals the view: %b\n"
    (String.equal
       (Xmldoc.Xml_print.to_string ~indent:true (Core.Session.view session))
       (Xmldoc.Xml_print.to_string ~indent:true enforced));

  print_endline "\n2. Lazy query filtering (no materialisation):";
  let lv = Core.Lazy_view.of_session flat session in
  let query = "//patient/name/text()" in
  let hits = Core.Lazy_view.select_str lv query in
  Printf.printf "%s through the lazy view: %d hits, equal to the view's: %b\n"
    query (List.length hits)
    (hits = Core.Session.query session query);

  print_endline "\n=== Cascading revocation ===";
  Printf.printf "chief revokes alice's delegation (timestamp %d)...\n"
    root_delegation.timestamp;
  let admin =
    ok (Core.Admin.revoke_delegation admin doc ~issuer:"chief"
          ~timestamp:root_delegation.timestamp)
  in
  Printf.printf "remaining rules: %d, remaining delegations: %d\n"
    (List.length (Core.Policy.rules (Core.Admin.policy admin)))
    (List.length (Core.Admin.delegations admin));
  let session =
    Core.Session.login ~flat (Core.Admin.policy admin) doc ~user:"bob"
  in
  Printf.printf "bob's view afterwards: %d nodes\n"
    (Core.View.visible_count (Core.Session.view session))
