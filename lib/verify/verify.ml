include Semantic
module Ast_source = Ast_source
module Callgraph = Callgraph
module Lock_analysis = Lock_analysis
module Escape_analysis = Escape_analysis
module Ast_lint = Ast_lint
