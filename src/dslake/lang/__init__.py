"""The analysis query language: lexer, parser, formatter, validator.

Import names from their submodules; this package module imports nothing."""
