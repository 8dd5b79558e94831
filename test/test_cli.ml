(* End-to-end tests of the xmlsecu command-line tool: each case runs the
   real binary against policy/document files on disk and checks output and
   exit codes. *)

let exe =
  (* Tests execute in _build/default/test; the binary is a sibling. *)
  Filename.concat (Filename.concat ".." "bin") "xmlsecu.exe"

let write_temp suffix content =
  let path = Filename.temp_file "xmlsecu" suffix in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let run args =
  let out = Filename.temp_file "xmlsecu" ".out" in
  let command =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command command in
  let ic = open_in_bin out in
  let output = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, output)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

let doc_file () = write_temp ".xml" Core.Paper_example.document_xml
let policy_file () = write_temp ".acl" Core.Paper_example.policy_text

let check_contains name output needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s: output contains %S" name needle)
    true (contains output needle)

let test_demo () =
  let code, output = run [ "demo" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "demo" output "View for secretary beaufort";
  check_contains "demo" output "RESTRICTED"

let test_view () =
  let doc = doc_file () and policy = policy_file () in
  let code, output = run [ "view"; "-d"; doc; "-p"; policy; "-u"; "beaufort" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "view" output "text()RESTRICTED";
  check_contains "view" output "/franck";
  let code, output = run [ "view"; "-d"; doc; "-p"; policy; "-u"; "robert"; "--xml" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "xml view" output "<robert>";
  Alcotest.(check bool) "franck absent" false (contains output "franck");
  let code, output = run [ "view"; "-d"; doc; "-p"; policy; "-u"; "richard"; "--facts" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "facts view" output "node(1.1, RESTRICTED)"

let test_query () =
  let doc = doc_file () and policy = policy_file () in
  let code, output =
    run [ "query"; "-d"; doc; "-p"; policy; "-u"; "laporte"; "//diagnosis/text()" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "query" output "2 node(s)";
  check_contains "query" output "tonsillitis";
  let code, output =
    run [ "query"; "-d"; doc; "-p"; policy; "-u"; "robert"; "//diagnosis/text()" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "restricted query" output "1 node(s)"

(* A predicate query through --rewrite takes the fallback over the
   snapshot and must print exactly the nodes the view evaluation prints;
   the path note goes to stderr and is dropped before comparing. *)
let test_query_rewrite () =
  let data f =
    Filename.concat (Filename.concat ".." "examples") ("data/" ^ f)
  in
  let query extra user =
    let code, output =
      run
        ([ "query"; "-d"; data "patients.xml"; "-p"; data "hospital.acl";
           "-u"; user ]
        @ extra @ [ "//robert[diagnosis]" ])
    in
    Alcotest.(check int) "exit 0" 0 code;
    List.filter
      (fun l -> not (contains l "rewrite: "))
      (String.split_on_char '\n' output)
  in
  let code, output =
    run
      [ "query"; "--rewrite"; "-d"; data "patients.xml"; "-p";
        data "hospital.acl"; "-u"; "laporte"; "//robert[diagnosis]" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "rewrite" output "rewrite: fallback path";
  check_contains "rewrite" output "1 node(s)";
  List.iter
    (fun user ->
      Alcotest.(check (list string))
        (Printf.sprintf "--rewrite = view evaluation for %s" user)
        (query [] user) (query [ "--rewrite" ] user))
    [ "laporte"; "beaufort"; "robert"; "franck"; "richard" ]

let test_update () =
  let doc = doc_file () and policy = policy_file () in
  let xupdate =
    write_temp ".xml"
      {|<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:update select="/patients/franck/diagnosis">pharyngitis</xupdate:update>
</xupdate:modifications>|}
  in
  let code, output =
    run [ "update"; "-d"; doc; "-p"; policy; "-u"; "laporte"; xupdate ]
  in
  Alcotest.(check int) "doctor: exit 0" 0 code;
  check_contains "doctor update" output "pharyngitis";
  let code, output =
    run [ "update"; "-d"; doc; "-p"; policy; "-u"; "beaufort"; xupdate ]
  in
  Alcotest.(check int) "secretary: exit 0 (per-node denial)" 0 code;
  check_contains "secretary denial" output "denied"

let test_explain () =
  let doc = doc_file () and policy = policy_file () in
  let code, output =
    run
      [ "explain"; "-d"; doc; "-p"; policy; "-u"; "beaufort";
        "/patients/franck/diagnosis/node()" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "explain" output "RESTRICTED";
  check_contains "explain" output "position granted by";
  (* --plan prints the read plan the served query took. *)
  let plan q extra =
    run ([ "explain"; "--plan"; "-d"; doc; "-p"; policy; "-u"; "laporte" ]
         @ extra @ [ q ])
  in
  let code, output = plan "//service" [] in
  Alcotest.(check int) "explain --plan: exit 0" 0 code;
  check_contains "anchored plan" output "rewrite path (anchored on service)";
  let _, output = plan "//node()" [] in
  check_contains "scan plan" output "rewrite path (scan)";
  let _, output = plan "//service" [ "--json" ] in
  check_contains "plan JSON" output {|"path":"rewrite","plan":"anchored"|};
  (* An answer the view shows as RESTRICTED owes its visibility to the
     position grant, not to the rule that denied read. *)
  let data file = Filename.concat ".." ("examples/data/" ^ file) in
  let code, output =
    run
      [ "explain"; "--plan"; "-d"; data "patients.xml"; "-p";
        data "hospital.acl"; "-u"; "beaufort"; "//diagnosis/node()" ]
  in
  Alcotest.(check int) "explain --plan RESTRICTED answers: exit 0" 0 code;
  check_contains "RESTRICTED answers' deciding rule" output
    "deciding rules: rule(accept, position, //diagnosis/node(), secretary, 12)";
  Alcotest.(check bool) "the read denial decides nothing shown" false
    (contains output "rule(deny, read")

let test_check () =
  let policy = policy_file () in
  let code, output = run [ "check"; policy ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "check" output "12 rules";
  let bad = write_temp ".acl" "grant read on //a to ghost" in
  let code, output = run [ "check"; bad ] in
  Alcotest.(check int) "exit 3 on bad policy" 3 code;
  check_contains "bad policy" output "policy error";
  check_contains "bad policy" output "unknown subject"

let test_compare () =
  let doc = doc_file () and policy = policy_file () in
  let code, output =
    run [ "compare"; "-d"; doc; "-p"; policy; "-u"; "richard" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "compare" output "deny-subtree [11]";
  check_contains "compare" output "structure-preserving [7]"

let test_stylesheet () =
  let policy = policy_file () in
  let code, output = run [ "stylesheet"; "-p"; policy; "-u"; "beaufort" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "stylesheet" output "<xsl:stylesheet";
  check_contains "stylesheet" output "RESTRICTED";
  let doc = doc_file () in
  let code, output =
    run [ "stylesheet"; "-p"; policy; "-u"; "beaufort"; "--apply"; doc ]
  in
  Alcotest.(check int) "apply: exit 0" 0 code;
  check_contains "applied" output "<patients>";
  check_contains "applied" output "<diagnosis>RESTRICTED</diagnosis>"

let test_validate () =
  let doc = doc_file () in
  let dtd =
    write_temp ".dtd"
      {|<!ELEMENT patients (franck | robert)*>
<!ELEMENT franck (service, diagnosis?)>
<!ELEMENT robert (service, diagnosis?)>
<!ELEMENT service (#PCDATA)>
<!ELEMENT diagnosis (#PCDATA)>|}
  in
  let code, output = run [ "validate"; doc; "--dtd"; dtd; "--root"; "patients" ] in
  Alcotest.(check int) "valid doc: exit 0" 0 code;
  check_contains "validate" output "valid";
  let bad = write_temp ".xml" "<patients><zoe/></patients>" in
  let code, output = run [ "validate"; bad; "--dtd"; dtd ] in
  Alcotest.(check int) "invalid doc: exit 1" 1 code;
  check_contains "violations" output "violation"

let test_lint () =
  let doc = doc_file () and policy = policy_file () in
  let code, output = run [ "lint"; "-d"; doc; "-p"; policy ] in
  Alcotest.(check int) "paper policy clean: exit 0" 0 code;
  check_contains "lint" output "clean";
  let bad =
    write_temp ".acl"
      "user u\ngrant read on //zzz to u\ngrant read on //service to u"
  in
  let code, output = run [ "lint"; "-d"; doc; "-p"; bad ] in
  Alcotest.(check int) "findings: exit 1" 1 code;
  check_contains "lint findings" output "dead rule";
  check_contains "lint findings" output "unreachable grant"

let test_repl () =
  let doc = doc_file () and policy = policy_file () in
  let script =
    write_temp ".rcmd"
      {|whoami
query //diagnosis/node()
update /patients/franck/diagnosis cured
login laporte
update /patients/franck/diagnosis cured
query //text()[. = 'cured']
explain /patients/franck/diagnosis/node()
bogus-command
view facts
quit|}
  in
  let code, output =
    run [ "repl"; "-d"; doc; "-p"; policy; "-u"; "beaufort"; "--script"; script ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "repl" output "beaufort (view:";
  check_contains "repl" output "denied update";
  check_contains "repl" output "now laporte";
  check_contains "repl" output "1 node(s)";
  check_contains "repl" output "unknown command bogus-command";
  check_contains "repl" output "node(1.1.3.1, cured)"

(* Every error family maps to a structured one-line message on stderr and
   its own exit code — no raw exceptions/backtraces leak to the user. *)
let test_errors () =
  let doc = doc_file () and policy = policy_file () in
  let code, output = run [ "view"; "-d"; doc; "-p"; policy; "-u"; "nobody" ] in
  Alcotest.(check int) "unknown user: exit 4" 4 code;
  check_contains "unknown user" output "xmlsecu: session error";
  check_contains "unknown user" output "unknown user";
  let bad_xml = write_temp ".xml" "<broken" in
  let code, output = run [ "view"; "-d"; bad_xml; "-p"; policy; "-u"; "robert" ] in
  Alcotest.(check int) "bad xml: exit 2" 2 code;
  check_contains "bad xml" output "xmlsecu: xml error";
  let code, _ = run [ "view"; "-d"; doc; "-p"; "/nonexistent"; "-u"; "robert" ] in
  Alcotest.(check bool) "missing file fails" true (code <> 0);
  let code, output =
    run [ "query"; "-d"; doc; "-p"; policy; "-u"; "robert"; "//[bad" ]
  in
  Alcotest.(check int) "bad xpath: exit 5" 5 code;
  check_contains "bad xpath" output "xmlsecu: xpath error";
  Alcotest.(check bool) "no backtrace" false (contains output "Raised at");
  let bad_xupdate = write_temp ".xml" "<xupdate:modifications" in
  let code, output =
    run [ "update"; "-d"; doc; "-p"; policy; "-u"; "robert"; bad_xupdate ]
  in
  Alcotest.(check int) "bad xupdate envelope: exit 2" 2 code;
  check_contains "bad xupdate envelope" output "xmlsecu: xml error";
  let wrong_root = write_temp ".xml" "<not-modifications/>" in
  let code, output =
    run [ "update"; "-d"; doc; "-p"; policy; "-u"; "robert"; wrong_root ]
  in
  Alcotest.(check int) "bad xupdate: exit 6" 6 code;
  check_contains "bad xupdate" output "xmlsecu: xupdate error";
  Alcotest.(check bool) "no backtrace" false (contains output "Raised at");
  let bad_dtd = write_temp ".dtd" "<!ELEMENT" in
  let code, output = run [ "validate"; doc; "--dtd"; bad_dtd ] in
  Alcotest.(check int) "bad dtd: exit 7" 7 code;
  check_contains "bad dtd" output "xmlsecu: schema error"

let test_atomic () =
  let doc = doc_file () and policy = policy_file () in
  let xupdate =
    write_temp ".xml"
      {|<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:update select="/patients/franck/diagnosis">pharyngitis</xupdate:update>
</xupdate:modifications>|}
  in
  let code, output =
    run [ "update"; "-d"; doc; "-p"; policy; "-u"; "beaufort"; "--atomic"; xupdate ]
  in
  Alcotest.(check int) "atomic denial: exit 9" 9 code;
  check_contains "atomic denial" output "xmlsecu: txn error";
  check_contains "atomic denial" output "rolled back";
  (* The permitted writer commits the same batch atomically. *)
  let code, output =
    run [ "update"; "-d"; doc; "-p"; policy; "-u"; "laporte"; "--atomic"; xupdate ]
  in
  Alcotest.(check int) "atomic commit: exit 0" 0 code;
  check_contains "atomic commit" output "pharyngitis"

let test_persist () =
  let doc = doc_file () and policy = policy_file () in
  let dir = Filename.temp_file "xmlsecu" ".store" in
  Sys.remove dir;
  let xupdate =
    write_temp ".xml"
      {|<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:update select="/patients/franck/diagnosis">pharyngitis</xupdate:update>
</xupdate:modifications>|}
  in
  let reference = Filename.temp_file "xmlsecu" ".xml" in
  let code, _ =
    run
      [ "update"; "-d"; doc; "-p"; policy; "-u"; "laporte"; "--persist"; dir;
        "--repeat"; "3"; "-o"; reference; xupdate ]
  in
  Alcotest.(check int) "persisted update: exit 0" 0 code;
  let code, output = run [ "recover"; "-p"; policy; dir; "--xml" ] in
  Alcotest.(check int) "recover: exit 0" 0 code;
  check_contains "recover" output "recovered seq 3";
  check_contains "recover" output "pharyngitis";
  let code, output = run [ "snapshot"; "-p"; policy; dir ] in
  Alcotest.(check int) "snapshot: exit 0" 0 code;
  check_contains "snapshot" output "snapshot written at seq 3";
  (* Recovery after the snapshot replays nothing and agrees byte-for-byte
     with the pre-crash database. *)
  let recovered = Filename.temp_file "xmlsecu" ".xml" in
  let code, output =
    run [ "recover"; "-p"; policy; dir; "-o"; recovered ]
  in
  Alcotest.(check int) "recover from snapshot: exit 0" 0 code;
  check_contains "recover from snapshot" output "0 txn(s) replayed";
  let slurp path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Alcotest.(check string) "recovered = reference" (slurp reference)
    (slurp recovered);
  let code, output = run [ "recover"; "-p"; policy; "/nonexistent-store" ] in
  Alcotest.(check int) "missing store: exit 8" 8 code;
  check_contains "missing store" output "xmlsecu: store error"

let () =
  (* Only meaningful when the binary has been built (dune deps ensure it). *)
  if not (Sys.file_exists exe) then begin
    print_endline "xmlsecu.exe not found; skipping CLI tests";
    exit 0
  end;
  Alcotest.run "cli"
    [
      ( "commands",
        [
          Alcotest.test_case "demo" `Quick test_demo;
          Alcotest.test_case "view" `Quick test_view;
          Alcotest.test_case "query" `Quick test_query;
          Alcotest.test_case "query --rewrite" `Quick test_query_rewrite;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "check" `Quick test_check;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "stylesheet" `Quick test_stylesheet;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "repl" `Quick test_repl;
          Alcotest.test_case "lint" `Quick test_lint;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "atomic" `Quick test_atomic;
          Alcotest.test_case "persist" `Quick test_persist;
        ] );
    ]
